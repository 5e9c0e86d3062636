package tokenize

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"  spaced   out  ", []string{"spaced", "out"}},
		{"", nil},
		{"---", nil},
		{"C++ vs Go-1.22", []string{"c", "vs", "go", "1", "22"}},
		{"ISBN 978-3-16", []string{"isbn", "978", "3", "16"}},
	}
	for _, c := range cases {
		got := Words(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWordSetDedupes(t *testing.T) {
	got := WordSet("the cat the hat the cat")
	want := []string{"the", "cat", "hat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WordSet = %v, want %v", got, want)
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("ab", 3)
	want := []string{"##a", "#ab", "ab#", "b##"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QGrams(ab,3) = %v, want %v", got, want)
	}
	if QGrams("", 3) != nil {
		t.Fatal("QGrams empty should be nil")
	}
	if QGrams("  !! ", 3) != nil {
		t.Fatal("QGrams all-punct should be nil")
	}
}

func TestQGramsNormalizeCaseAndSpace(t *testing.T) {
	a := QGrams("Hello  World", 3)
	b := QGrams("hello world", 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("case/space normalization failed: %v vs %v", a, b)
	}
}

func TestTokenizeDispatch(t *testing.T) {
	if !reflect.DeepEqual(Tokenize(Word, "a b"), []string{"a", "b"}) {
		t.Fatal("Word dispatch wrong")
	}
	if len(Tokenize(Gram3, "abc")) == 0 {
		t.Fatal("Gram3 dispatch wrong")
	}
}

func TestTokenizeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Tokenize(Kind("bogus"), "x")
}

func TestSet(t *testing.T) {
	got := Set(Word, "a a b")
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Set = %v", got)
	}
}

// TestDictEncodeSorted: known tokens get their IDs, unknown ones distinct
// extension IDs ≥ Len (so the set keeps its size and they match nothing),
// the appended run is sorted, dst's prefix is left alone, and the dictionary
// is not grown.
func TestDictEncodeSorted(t *testing.T) {
	d := DictOf([]string{"rare", "mid", "common"})
	got := d.EncodeSorted([]uint32{99}, []string{"common", "zzz", "rare", "aaa"})
	if want := []uint32{99, 0, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("EncodeSorted = %v, want %v", got, want)
	}
	if d.Len() != 3 {
		t.Fatalf("dictionary grew to %d tokens", d.Len())
	}
	if got := d.EncodeSorted(nil, nil); len(got) != 0 {
		t.Fatalf("empty set encoded as %v", got)
	}
}

func TestDocument(t *testing.T) {
	got := Document([]string{"The Cat", "cat food", ""})
	want := []string{"the", "cat", "food"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Document = %v, want %v", got, want)
	}
}

// Property: number of 3-grams of a normalized non-empty string of n runes is
// n + q − 1 (with padding q−1 on each side).
func TestQuickQGramCount(t *testing.T) {
	f := func(s string) bool {
		norm := strings.Join(Words(s), " ")
		grams := QGrams(s, 3)
		if norm == "" {
			return grams == nil
		}
		return len(grams) == len([]rune(norm))+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WordSet output contains no duplicates and is a subset of Words.
func TestQuickWordSetProperties(t *testing.T) {
	f := func(s string) bool {
		set := WordSet(s)
		seen := map[string]bool{}
		for _, w := range set {
			if seen[w] {
				return false
			}
			seen[w] = true
		}
		all := map[string]bool{}
		for _, w := range Words(s) {
			all[w] = true
		}
		if len(all) != len(set) {
			return false
		}
		for _, w := range set {
			if !all[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWords(b *testing.B) {
	s := strings.Repeat("the quick brown fox jumps over the lazy dog ", 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Words(s)
	}
}

func BenchmarkQGrams(b *testing.B) {
	s := "entity matching at cloud scale with crowdsourcing"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		QGrams(s, 3)
	}
}
