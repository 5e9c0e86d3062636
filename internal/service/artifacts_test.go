package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"falcon/internal/model"
)

// postArtifactBuild trains synchronously via POST /artifacts and returns
// the response body.
func postArtifactBuild(t *testing.T, ts *httptest.Server, n int) map[string]any {
	t.Helper()
	a, b := songsWithKey(n, 42)
	body, ctype := submitBody(t, a, b, map[string]string{"oracle_key": "match_key", "seed": "2"})
	resp, err := http.Post(ts.URL+"/artifacts", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("build status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// matchOne posts one record and returns the decoded response and status.
func matchOne(t *testing.T, ts *httptest.Server, record map[string]string) (map[string]any, int) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"record": record})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/match/one", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func TestVersionEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if int(out["artifact_version"].(float64)) != model.ArtifactVersion {
		t.Fatalf("artifact_version = %v, want %d", out["artifact_version"], model.ArtifactVersion)
	}
	if int(out["model_version"].(float64)) != model.Version {
		t.Fatalf("model_version = %v, want %d", out["model_version"], model.Version)
	}
	if !strings.HasPrefix(out["go"].(string), "go") {
		t.Fatalf("go = %v", out["go"])
	}
}

func TestMatchOneWithoutArtifact(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	out, code := matchOne(t, ts, map[string]string{"title": "x"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%v), want 503", code, out)
	}
	resp, err := http.Get(ts.URL + "/artifacts/current")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /artifacts/current = %d, want 404", resp.StatusCode)
	}
}

func TestArtifactServingLifecycle(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()

	built := postArtifactBuild(t, ts, 60)
	jobID := built["id"].(string)

	// Metadata of the published artifact.
	resp, err := http.Get(ts.URL + "/artifacts/current")
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	art := info["artifact"].(map[string]any)
	if int(art["artifact_version"].(float64)) != model.ArtifactVersion {
		t.Fatalf("published artifact version %v", art["artifact_version"])
	}
	if int(art["b_rows"].(float64)) == 0 || int(art["features"].(float64)) == 0 {
		t.Fatalf("empty artifact metadata: %v", art)
	}

	// Match a record taken straight from a frozen B row: it must at least
	// match itself... the record is A-shaped, so use a matching A row via
	// its own values.
	cols := art["columns"].([]any)
	a, _ := songsWithKey(60, 42)
	record := map[string]string{}
	for i, c := range cols {
		record[c.(string)] = a.Tuples[0].Values[i]
	}
	out, code := matchOne(t, ts, record)
	if code != http.StatusOK {
		t.Fatalf("match status %d: %v", code, out)
	}
	firstCount := int(out["count"].(float64))
	if matches, ok := out["matches"].([]any); !ok || len(matches) != firstCount {
		t.Fatalf("match response shape: %v", out)
	}

	// Download the job's artifact, reload it through PUT, and re-ask: the
	// answer must be identical (same artifact, fresh bundle).
	resp, err = http.Get(ts.URL + "/jobs/" + jobID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	artBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(artBytes) == 0 {
		t.Fatalf("artifact download status %d, %d bytes", resp.StatusCode, len(artBytes))
	}
	if _, err := model.LoadArtifact(bytes.NewReader(artBytes)); err != nil {
		t.Fatalf("downloaded artifact does not load: %v", err)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/artifacts/current", bytes.NewReader(artBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d: %s", resp.StatusCode, swapBody)
	}
	out2, code := matchOne(t, ts, record)
	if code != http.StatusOK || int(out2["count"].(float64)) != firstCount {
		t.Fatalf("answer changed after reload: %v vs %v", out2, out)
	}
}

func TestMatchOneBadRequests(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	postArtifactBuild(t, ts, 60)

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/match/one", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", code)
	}
	if code := post("{}"); code != http.StatusBadRequest {
		t.Fatalf("empty record: %d", code)
	}
	if code := post(`{"record": {"no_such_column": "x"}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown column: %d", code)
	}
	if code := post(`{"unknown_field": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", code)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/artifacts/current", strings.NewReader("garbage"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage artifact: %d", resp.StatusCode)
	}
}

// TestInconsistentArtifactIsUnprocessable: an artifact that decodes (valid
// magic, version and checksum) but whose parts disagree with each other must
// be refused with 422 at publish time — not published and left to panic with
// an index out of range on the first matching request — and the artifact
// already being served must keep answering.
func TestInconsistentArtifactIsUnprocessable(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	jobID := postArtifactBuild(t, ts, 60)["id"].(string)
	resp, err := http.Get(ts.URL + "/jobs/" + jobID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	artBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	for name, corrupt := range map[string]func(a *model.MatcherArtifact){
		"encoded rows short of B":  func(a *model.MatcherArtifact) { a.Corrs[0].RowsB = a.Corrs[0].RowsB[:1] },
		"feature column outside B": func(a *model.MatcherArtifact) { a.Feats[0].BCol = 99 },
	} {
		art, err := model.LoadArtifact(bytes.NewReader(artBytes))
		if err != nil {
			t.Fatal(err)
		}
		corrupt(art)
		var buf bytes.Buffer
		if err := art.Save(&buf); err != nil { // Save re-checksums: the body is well-formed
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/artifacts/current", &buf)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: PUT status %d (%s), want 422", name, resp.StatusCode, body)
		}
	}

	a, _ := songsWithKey(60, 42)
	record := map[string]string{}
	for i, name := range a.Schema.Names()[:len(a.Schema.Names())-1] { // all but the oracle key column
		record[name] = a.Tuples[0].Values[i]
	}
	if out, code := matchOne(t, ts, record); code != http.StatusOK {
		t.Fatalf("match after refused swaps: status %d (%v)", code, out)
	}
}

// TestConcurrentMatchAndSwap hammers POST /match/one while another client
// keeps PUTting the artifact — the serving path's lock-free swap claim at
// the HTTP layer. The race gate runs this package under -race.
func TestConcurrentMatchAndSwap(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	built := postArtifactBuild(t, ts, 60)
	jobID := built["id"].(string)

	resp, err := http.Get(ts.URL + "/jobs/" + jobID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	artBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	a, _ := songsWithKey(60, 42)
	var infoOut map[string]any
	r2, err := http.Get(ts.URL + "/artifacts/current")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&infoOut); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	cols := infoOut["artifact"].(map[string]any)["columns"].([]any)

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/artifacts/current", bytes.NewReader(artBytes))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("swap status %d", resp.StatusCode)
				return
			}
		}
	}()

	const readers = 4
	var rd sync.WaitGroup
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func(r int) {
			defer rd.Done()
			for i := 0; i < 25; i++ {
				row := (i*readers + r) % a.Len()
				record := map[string]string{}
				for ci, c := range cols {
					record[c.(string)] = a.Tuples[row].Values[ci]
				}
				body, err := json.Marshal(map[string]any{"record": record})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/match/one", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("match status %d", resp.StatusCode)
					return
				}
			}
		}(r)
	}
	rd.Wait()
	close(stop)
	swapper.Wait()
}
