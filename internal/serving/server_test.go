package serving

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// jsonFloat reads a response value however encoding/json delivered it.
func jsonFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

func newTestServer(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	root := t.TempDir()
	writeTestModel(t, root, "m", 1)
	reg := NewRegistry(root, ModelOptions{MaxBatch: 4, Window: time.Millisecond})
	if err := reg.LoadAll(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg).Handler())
	t.Cleanup(func() { ts.Close(); reg.Close() })
	return reg, ts
}

func TestServerPredict(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"inputs": {"x": {"shape": [2, 4], "values": [1,1,1,1,2,2,2,2]}}}`
	resp, err := http.Post(ts.URL+"/v1/models/m:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "m" || pr.Version != 1 {
		t.Fatalf("response header: %+v", pr)
	}
	y, ok := pr.Outputs["y"]
	if !ok {
		t.Fatalf("response missing output alias y: %v", pr.Outputs)
	}
	if y.DType != "float32" || len(y.Shape) != 2 || y.Shape[0] != 2 || y.Shape[1] != testModelCols {
		t.Fatalf("output meta: %+v", y)
	}
	// Version 1 scales by 2: rows [1...]->2, [2...]->4.
	want := []float64{2, 2, 2, 2, 4, 4, 4, 4}
	for i, v := range y.Values {
		if f, ok := jsonFloat(v); !ok || f != want[i] {
			t.Fatalf("value %d = %v (%T), want %v", i, v, v, want[i])
		}
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	ok := `{"inputs": {"x": {"shape": [1, 4], "values": [1,2,3,4]}}}`
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"unknown model", "/v1/models/nope:predict", ok, http.StatusNotFound},
		{"malformed json", "/v1/models/m:predict", `{"inputs": {`, http.StatusBadRequest},
		{"unknown field", "/v1/models/m:predict", `{"inputs": {}, "x": 1}`, http.StatusBadRequest},
		{"no inputs", "/v1/models/m:predict", `{"inputs": {}}`, http.StatusBadRequest},
		{"shape mismatch", "/v1/models/m:predict", `{"inputs": {"x": {"shape": [1, 4], "values": [1]}}}`, http.StatusBadRequest},
		{"wrong alias", "/v1/models/m:predict", `{"inputs": {"z": {"shape": [1, 4], "values": [1,2,3,4]}}}`, http.StatusBadRequest},
		{"wrong cols", "/v1/models/m:predict", `{"inputs": {"x": {"shape": [1, 3], "values": [1,2,3]}}}`, http.StatusBadRequest},
		{"negative dim", "/v1/models/m:predict", `{"inputs": {"x": {"shape": [-1, 4], "values": []}}}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/models/m:predict", ok + ` garbage`, http.StatusBadRequest},
		{"second object", "/v1/models/m:predict", ok + ok, http.StatusBadRequest},
		{"trailing whitespace", "/v1/models/m:predict", ok + " \n", http.StatusOK},
	}
	for _, c := range cases {
		if got := post(c.path, c.body); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	// GET on :predict is not allowed.
	resp, err := http.Get(ts.URL + "/v1/models/m:predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET :predict: status %d", resp.StatusCode)
	}
}

// TestPredictNonFiniteOutput: an output JSON cannot carry is a server error
// that names the output, not a 200 with an empty body.
func TestPredictNonFiniteOutput(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"inputs": {"x": {"shape": [1, 4], "values": [3e38, 1, 1, 1]}}}` // version 1 doubles: +Inf
	resp, err := http.Post(ts.URL+"/v1/models/m:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("status %d, body not JSON: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(reply.Error, `output "y"`) {
		t.Fatalf("status %d, error %q; want 500 naming output \"y\"", resp.StatusCode, reply.Error)
	}
}

func TestServerStatusAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Models []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Models) != 1 || status.Models[0].Name != "m" || status.Models[0].Version != 1 || !status.Models[0].Batched {
		t.Fatalf("status: %+v", status.Models)
	}

	// Per-model metadata endpoint.
	resp, err = http.Get(ts.URL + "/v1/models/m")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Name      string    `json:"name"`
		Version   int64     `json:"version"`
		Signature Signature `json:"signature"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Name != "m" || meta.Signature.Inputs[0].Alias != "x" {
		t.Fatalf("model meta: %+v", meta)
	}
}

// TestServerHealthzEmptyRegistry: before any model loads, the server must
// fail its liveness probe rather than accept traffic it cannot serve.
func TestServerHealthzEmptyRegistry(t *testing.T) {
	reg := NewRegistry(t.TempDir(), ModelOptions{})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with no models: %d, want 503", resp.StatusCode)
	}
}

// TestServerConcurrentPredicts drives parallel HTTP predicts through the
// batcher; responses must match their own request rows.
func TestServerConcurrentPredicts(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				in := g*100 + i
				body := fmt.Sprintf(`{"inputs": {"x": {"shape": [1, 4], "values": [%d,%d,%d,%d]}}}`, in, in, in, in)
				resp, err := http.Post(ts.URL+"/v1/models/m:predict", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				want := float64(2 * in) // version 1 scales by 2
				for _, v := range pr.Outputs["y"].Values {
					if f, ok := jsonFloat(v); !ok || f != want {
						t.Errorf("goroutine %d: got %v, want %v — rows cross-wired over HTTP", g, v, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerShuttingDownIs503: a predict that reaches a model whose batcher
// is closing is told to come back, not that the server broke.
func TestServerShuttingDownIs503(t *testing.T) {
	root := t.TempDir()
	writeTestModel(t, root, "m", 1)
	reg := NewRegistry(root, ModelOptions{MaxBatch: 4, Window: time.Millisecond})
	if err := reg.LoadAll(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()
	reg.Model("m").Close() // behind the registry's back; the registry itself drains first
	body := `{"inputs": {"x": {"shape": [1, 4], "values": [1,2,3,4]}}}`
	resp, err := http.Post(ts.URL+"/v1/models/m:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("predict on a closing model: status %d, want 503", resp.StatusCode)
	}
}

// TestServerLabelsReplyWithItsOwnVersion: every version of this model names
// its output differently, and HTTP predicts run while the versions are
// swapped underneath them. A reply must carry the alias and the scale of the
// version it says computed it — binding, predicting and labelling happen
// against one pinned version, never against whichever is active at each step.
func TestServerLabelsReplyWithItsOwnVersion(t *testing.T) {
	root := t.TempDir()
	const last = 6
	write := func(v int64) {
		g, sig := testModelGraph(t, scaleForVersion(v))
		sig.Outputs[0].Alias = fmt.Sprintf("y%d", v)
		if err := WriteModel(root, "m", v, g, sig); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	reg := NewRegistry(root, ModelOptions{MaxBatch: 4, Window: time.Millisecond})
	if err := reg.LoadAll(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer func() { ts.Close(); reg.Close() }()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				in := c*1000 + i
				body := fmt.Sprintf(`{"inputs": {"x": {"shape": [1, 4], "values": [%d,%d,%d,%d]}}}`, in, in, in, in)
				resp, err := http.Post(ts.URL+"/v1/models/m:predict", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d, decode error %v", c, resp.StatusCode, err)
					return
				}
				out, ok := pr.Outputs[fmt.Sprintf("y%d", pr.Version)]
				if !ok || len(pr.Outputs) != 1 {
					t.Errorf("client %d: version %d replied with outputs %v", c, pr.Version, pr.Outputs)
					return
				}
				if f, ok := jsonFloat(out.Values[0]); !ok || f != float64(scaleForVersion(pr.Version))*float64(in) {
					t.Errorf("client %d: version %d answered %v for %d", c, pr.Version, out.Values[0], in)
					return
				}
				if pr.Version == last {
					return
				}
			}
		}(c)
	}
	for v := int64(2); v <= last; v++ {
		write(v)
		if swapped, err := reg.Reload("m"); err != nil || !swapped {
			t.Fatalf("reload to version %d: swapped=%t err=%v", v, swapped, err)
		}
	}
	wg.Wait()
}
