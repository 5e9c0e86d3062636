package sample

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"falcon/internal/datagen"
	"falcon/internal/mapreduce"
	"falcon/internal/table"
)

// pairsSHA hashes a pair list in order: the sample is the learner's whole
// input, so one moved pair changes every question the crowd is asked.
func pairsSHA(pairs []table.Pair) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.A))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.B))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPairsGolden pins sample.Pairs' output — every pair, in order — to the
// hashes the map-and-full-sort implementation produced (recorded at commit
// cb15de1): both benchmark data shapes with and without the self slot, and
// the small-table corners (y clamped to |A|, fewer token-sharing rows than
// y/2, y/2 = 0), each on one worker and on eight.
func TestPairsGolden(t *testing.T) {
	songs := datagen.Songs(3000, 1)
	products := datagen.Products(0.3, 1)
	tinyA, tinyB := matchedTables(5, 5, 5, 7)
	smallA, smallB := matchedTables(80, 60, 10, 9)
	cases := []struct {
		name string
		a, b *table.Table
		cfg  Config
		want string
	}{
		{"songs", songs.A, songs.B, Config{N: 100_000, Seed: 1}, "4f747d7fabe2708907025a41516ea0c514b156e6a2a7a91b18a59b659a9f6941"},
		{"songs/exclude-self", songs.A, songs.B, Config{N: 100_000, Seed: 1, ExcludeSelf: true}, "ff8deafac9ab274216d2f3e2151fc0c8b75e2bbf947b7d4b8cf1cbb84018f9d6"},
		{"products", products.A, products.B, Config{N: 100_000, Seed: 1}, "460cf7e104ef4417ebcf69ddedb15d867b9dd095ef57077c7eba2a427b1d3b71"},
		{"products/exclude-self", products.A, products.B, Config{N: 100_000, Seed: 1, ExcludeSelf: true}, "72b708e4d0af9334561225797e9e12a28c89145dd2c43d67e9176463a8bdcd43"},
		{"tiny/y-clamped", tinyA, tinyB, Config{N: 100, Y: 10, Seed: 1}, "cdb725e94be9cf6c9d47c4206fbe4efd8dacdc4248385bf4c4847e5ce288c12a"},
		{"tiny/y-clamped/exclude-self", tinyA, tinyB, Config{N: 100, Y: 10, Seed: 1, ExcludeSelf: true}, "91f7f445c13c13a11f43c3dd12c253528cc638941ba1cf7f5b5964414e20ebc1"},
		{"small/y=1", smallA, smallB, Config{N: 30, Y: 1, Seed: 3}, "2778d765d568cd98ea9b5495dbdc5507f7f4534c8e5ac14c395363661d279f4a"},
		{"small/y=3", smallA, smallB, Config{N: 90, Y: 3, Seed: 3, ExcludeSelf: true}, "56d4cc87dd8bae1926818621e4c5a1adaacdf38b9326e0db52178209ef8f26bb"},
		{"small/y=60", smallA, smallB, Config{N: 1200, Y: 60, Seed: 3, StopwordDF: 20}, "b4caf0a544e1af666bd51796f54594a192fbef6da9c04fbf3c34f06a66f1584f"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cluster := mapreduce.Default()
				cluster.Workers = workers
				pairs, _, err := Pairs(context.Background(), cluster, c.a, c.b, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := pairsSHA(pairs); got != c.want {
					t.Errorf("%d pairs hash to %s, want %s", len(pairs), got, c.want)
				}
			})
		}
	}
}
