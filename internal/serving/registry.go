package serving

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// Registry owns the serving process's loaded models and implements
// versioned hot reload: a new version is loaded and warmed OFF the serving
// path, atomically swapped in, and the old version drains its in-flight
// requests before releasing its session — so a reload under sustained load
// drops nothing and every caller gets rows computed by exactly one version.
type Registry struct {
	root string
	opts ModelOptions

	mu     sync.RWMutex
	models map[string]*servedModel
}

// servedModel is the stable identity of one model name across version
// swaps. The RWMutex orders "acquire active version + mark in-flight"
// against "swap": a swap takes the write lock, so after it releases, every
// later predict sees the new version, and the old version's in-flight
// count is complete and strictly decreasing.
type servedModel struct {
	mu       sync.RWMutex
	active   *Model
	inFlight *sync.WaitGroup // paired 1:1 with active

	// loadMu serializes whole reloads (check → load → warm → swap → drain)
	// so concurrent Reload calls cannot leapfrog each other's swaps. It is
	// never taken on the predict path.
	loadMu sync.Mutex
}

// NewRegistry creates a registry over a model root directory.
func NewRegistry(root string, opts ModelOptions) *Registry {
	return &Registry{root: root, opts: opts, models: make(map[string]*servedModel)}
}

// Root returns the registry's model root directory.
func (r *Registry) Root() string { return r.root }

// LoadAll scans the root and loads the latest version of every model.
func (r *Registry) LoadAll() error {
	names, err := ScanModels(r.root)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("serving: no models under %s", r.root)
	}
	for _, name := range names {
		if _, err := r.Reload(name); err != nil {
			return err
		}
	}
	return nil
}

// Reload checks the model's directory for a newer version than the one
// serving; if found (or if the model is not loaded yet) it loads and warms
// the new version, swaps it in, and drains and closes the old one. Returns
// true if a swap happened. Concurrent predicts are never blocked by the
// load or the warm — only the pointer swap itself takes the write lock.
func (r *Registry) Reload(name string) (bool, error) {
	latest, err := LatestVersion(filepath.Join(r.root, name))
	if err != nil {
		return false, err
	}
	entry := r.entry(name)
	entry.loadMu.Lock()
	defer entry.loadMu.Unlock()
	entry.mu.RLock()
	cur := entry.active
	entry.mu.RUnlock()
	if cur != nil && cur.Version >= latest {
		return false, nil
	}
	m, err := LoadModel(r.root, name, latest, r.opts)
	if err != nil {
		return false, err
	}
	if err := m.Warm(); err != nil {
		m.Close()
		return false, err
	}
	old, oldInFlight := entry.swap(m)
	if old != nil {
		oldInFlight.Wait() // drain: every accepted request completes on its version
		old.Close()
	}
	return true, nil
}

// ReloadAll runs Reload for every model currently on disk.
func (r *Registry) ReloadAll() error {
	names, err := ScanModels(r.root)
	if err != nil {
		return err
	}
	var firstErr error
	for _, name := range names {
		if _, err := r.Reload(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (r *Registry) entry(name string) *servedModel {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[name]
	if !ok {
		e = &servedModel{inFlight: &sync.WaitGroup{}}
		r.models[name] = e
	}
	return e
}

func (e *servedModel) swap(m *Model) (*Model, *sync.WaitGroup) {
	wg := &sync.WaitGroup{}
	e.mu.Lock()
	old, oldWG := e.active, e.inFlight
	e.active, e.inFlight = m, wg
	e.mu.Unlock()
	return old, oldWG
}

// acquire returns the active version with its in-flight count incremented.
// Holding the read lock across the increment is what makes the swap's
// drain complete: the write lock cannot be taken between "caller saw old
// version" and "old version's count includes the caller".
func (e *servedModel) acquire() (*Model, *sync.WaitGroup, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.active == nil {
		return nil, nil, fmt.Errorf("serving: model is not loaded")
	}
	e.inFlight.Add(1)
	return e.active, e.inFlight, nil
}

// Predict routes one request to the model's active version.
func (r *Registry) Predict(name string, inputs []*tensor.Tensor) ([]*tensor.Tensor, int64, error) {
	return r.PredictContext(context.Background(), name, inputs)
}

// PredictContext is Predict under the caller's deadline (see
// Model.PredictContext).
func (r *Registry) PredictContext(ctx context.Context, name string, inputs []*tensor.Tensor) ([]*tensor.Tensor, int64, error) {
	m, pin, err := r.acquire(name)
	if err != nil {
		return nil, 0, err
	}
	defer pin.Done()
	out, err := m.PredictContext(ctx, inputs)
	return out, m.Version, err
}

// acquire pins the model's active version: it will not be closed before
// pin.Done is called, however many swaps happen meanwhile.
func (r *Registry) acquire(name string) (m *Model, pin *sync.WaitGroup, err error) {
	r.mu.RLock()
	e, ok := r.models[name]
	r.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("serving: unknown model %q", name)
	}
	if m, pin, err = e.acquire(); err != nil {
		return nil, nil, fmt.Errorf("serving: model %q: %w", name, err)
	}
	return m, pin, nil
}

// Model returns the active version of a loaded model, or nil. The returned
// model may be swapped out at any time; use Predict for request routing.
func (r *Registry) Model(name string) *Model {
	r.mu.RLock()
	e, ok := r.models[name]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.active
}

// ModelStatus describes one serving model for the status endpoint.
type ModelStatus struct {
	Name      string `json:"name"`
	Version   int64  `json:"version"`
	Signature string `json:"signature"`
	Batched   bool   `json:"batched"`
}

// Status lists the loaded models in name order.
func (r *Registry) Status() []ModelStatus {
	r.mu.RLock()
	names := make([]string, 0, len(r.models))
	for name := range r.models {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	var out []ModelStatus
	for _, name := range names {
		if m := r.Model(name); m != nil {
			out = append(out, ModelStatus{
				Name: name, Version: m.Version, Signature: m.Sig.Name, Batched: m.Batched(),
			})
		}
	}
	return out
}

// Close drains and closes every model.
func (r *Registry) Close() {
	r.mu.Lock()
	models := r.models
	r.models = make(map[string]*servedModel)
	r.mu.Unlock()
	for _, e := range models {
		old, wg := e.swap(nil)
		if old != nil {
			wg.Wait()
			old.Close()
		}
	}
}
