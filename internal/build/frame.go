package build

import (
	"fmt"

	"repro/internal/graph"
)

// FrameScope is the construction-time context of one loop frame (§3.4):
// while installed on a builder, any input whose producer does not execute
// inside the frame is automatically routed through a constant Enter, exactly
// like the reference system's control-flow contexts. "Executes inside the
// frame" means the node has at least one in-frame input: source nodes
// (Const, Variable) always execute in the caller's frame, so even constants
// created textually inside a loop body are captured through an Enter.
//
// Both tf.While and the autodiff backward-loop builder construct frames
// through this type, which is also where frame membership is recorded: every
// resident node is stamped with graph.FrameAttr so later passes (the
// gradient builder, tooling) can recover the frame structure statically.
type FrameScope struct {
	b     *B
	frame string

	resident   map[*graph.Node]bool
	enterCache map[graph.Endpoint]graph.Endpoint

	// Redirect, when set, intercepts input mapping before the resident /
	// capture logic. It returns the replacement endpoint and whether it
	// handled the input. The autodiff loop-gradient builder uses it to
	// replace forward-loop values with stack pops.
	Redirect func(graph.Endpoint) (graph.Endpoint, bool)

	parentMapper func(graph.Endpoint) graph.Endpoint
	prevAdd      func(*graph.Node)
	installed    bool
}

// NewFrameScope creates a frame scope for the given frame name on b. The
// scope is inert until Install.
func NewFrameScope(b *B, frame string) *FrameScope {
	return &FrameScope{
		b:          b,
		frame:      frame,
		resident:   map[*graph.Node]bool{},
		enterCache: map[graph.Endpoint]graph.Endpoint{},
	}
}

// MarkResident records nodes as executing inside the frame (the loop
// skeleton built before Install) and stamps frame membership on them. A
// node already claimed by another frame keeps its original stamp (nested
// loops: an inner Exit delivers into the outer frame but belongs to the
// inner one).
func (fs *FrameScope) MarkResident(nodes ...*graph.Node) {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		fs.resident[n] = true
		if n.Op() != "Enter" && n.AttrString(graph.FrameAttr, "") == "" {
			n.SetAttr(graph.FrameAttr, fs.frame)
		}
	}
}

// Install activates the scope: the builder's input mapper routes captures
// through constant Enters and the on-add hook marks new nodes resident.
// Scopes nest; Remove restores the previous hooks.
func (fs *FrameScope) Install() {
	if fs.installed {
		return
	}
	fs.installed = true
	fs.parentMapper = fs.b.SetInputMapper(fs.mapInput)
	fs.prevAdd = fs.b.SetOnAdd(fs.onAdd)
}

// Remove deactivates the scope, restoring the previously installed hooks.
// It is idempotent.
func (fs *FrameScope) Remove() {
	if !fs.installed {
		return
	}
	fs.installed = false
	fs.b.SetInputMapper(fs.parentMapper)
	fs.b.SetOnAdd(fs.prevAdd)
}

// Suspend temporarily clears both construction hooks so the caller can emit
// nodes outside the frame (e.g. into the forward loop the gradient of which
// is under construction); the returned function restores them.
func (fs *FrameScope) Suspend() (restore func()) {
	oldMap := fs.b.SetInputMapper(nil)
	oldAdd := fs.b.SetOnAdd(nil)
	return func() {
		fs.b.SetInputMapper(oldMap)
		fs.b.SetOnAdd(oldAdd)
	}
}

// mapInput implements the capture rule: resident values pass through,
// everything else is entered into the frame as a loop-invariant constant.
func (fs *FrameScope) mapInput(ep graph.Endpoint) graph.Endpoint {
	if fs.Redirect != nil {
		if m, handled := fs.Redirect(ep); handled {
			return m
		}
	}
	if fs.resident[ep.Node] {
		return ep
	}
	if cached, ok := fs.enterCache[ep]; ok {
		return cached
	}
	src := ep
	if fs.parentMapper != nil {
		// The value may live several frames up: let the enclosing frame
		// capture it first so our Enter's input is in our parent frame.
		src = fs.parentMapper(src)
		if src.Node == nil {
			return graph.Endpoint{}
		}
	}
	// Build the capture Enter with hooks suspended: its input must stay in
	// the parent frame.
	restore := fs.Suspend()
	enter := fs.b.Node("Enter", []graph.Endpoint{src}, fs.frame+"/capture",
		map[string]any{"frame_name": fs.frame, "is_constant": true})
	restore()
	if enter == nil {
		return graph.Endpoint{}
	}
	fs.resident[enter] = true
	fs.enterCache[ep] = enter.Out(0)
	return enter.Out(0)
}

// onAdd marks every node with at least one (already-mapped, hence in-frame)
// input as resident. Zero-input nodes (constants) stay outside and are
// captured on use.
func (fs *FrameScope) onAdd(n *graph.Node) {
	if n.NumInputs() > 0 {
		fs.MarkResident(n)
	}
	if fs.prevAdd != nil {
		fs.prevAdd(n)
	}
}

// CaptureInto exposes the capture rule for skeleton construction: it maps ep
// as if it were an input of a node built under the scope. The scope must be
// installed.
func (fs *FrameScope) CaptureInto(ep graph.Endpoint) (graph.Endpoint, error) {
	m := fs.mapInput(ep)
	if m.Node == nil {
		if err := fs.b.Err(); err != nil {
			return graph.Endpoint{}, err
		}
		return graph.Endpoint{}, fmt.Errorf("build: cannot capture %s into frame %s", ep, fs.frame)
	}
	return m, nil
}
