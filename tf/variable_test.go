package tf_test

import (
	"testing"

	"repro/tf"
)

// A variable's value is copy-on-write: a tensor the session has handed out,
// or been handed, is never written again. The three tests below hold a
// tensor across a later write and check it did not move.

func matrix2x2(vals ...float32) *tf.Tensor { return tf.FromFloat32s(tf.Shape{2, 2}, vals) }

func wantValues(t *testing.T, what string, got *tf.Tensor, want ...float32) {
	t.Helper()
	for i, w := range want {
		if got.Float32s()[i] != w {
			t.Errorf("%s = %v, want %v", what, got.Float32s(), want)
			return
		}
	}
}

// TestFetchedUpdateIsStable: the tensor fetched from AssignSub/AssignAdd is
// the variable's new value itself, and a sparse write in a later step writes
// in place — so it must take its own copy first.
func TestFetchedUpdateIsStable(t *testing.T) {
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", matrix2x2(1, 2, 3, 4))
	sub := v.AssignSub(g.Const(float32(1)))
	add := v.AssignAdd(g.Const(float32(5)))
	scatter := v.ScatterAdd(g.Const([]int32{0}), g.Const([][]float32{{10, 10}}))
	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	fetchedSub, err := s.Fetch1(nil, sub.Output(0))
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignSub", fetchedSub, 0, 1, 2, 3)
	if err := s.RunTargets(scatter); err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignSub's fetched tensor after ScatterAdd", fetchedSub, 0, 1, 2, 3)
	fetchedAdd, err := s.Fetch1(nil, add.Output(0))
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignAdd", fetchedAdd, 15, 16, 7, 8)
	if err := s.RunTargets(scatter); err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignAdd's fetched tensor after ScatterAdd", fetchedAdd, 15, 16, 7, 8)
	now, err := s.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "v", now, 25, 26, 7, 8)
}

// TestFedTensorReusedAfterAssign: the caller owns what it feeds and may
// overwrite it once Run returns; the variable must hold a copy.
func TestFedTensorReusedAfterAssign(t *testing.T) {
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", matrix2x2(0, 0, 0, 0))
	x := g.Placeholder("x", tf.Float32, tf.Shape{2, 2})
	// Through an Identity too: the fed buffer then reaches Assign on an edge
	// the executor does not know is fed.
	direct, forwarded := v.Assign(x), v.Assign(g.Identity(x))
	s := newSession(t, g)
	for _, assign := range []*tf.Operation{direct, forwarded} {
		fed := matrix2x2(1, 2, 3, 4)
		out, err := s.Fetch1(map[tf.Output]*tf.Tensor{x: fed}, assign.Output(0))
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "Assign", out, 1, 2, 3, 4)
		for i := range fed.Float32s() {
			fed.Float32s()[i] = -1
		}
		now, err := s.Fetch1(nil, v.Value())
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "v after the fed buffer was overwritten", now, 1, 2, 3, 4)
	}
}

// TestReadSnapshotAcrossScatter: Read no longer copies, so the copy has to
// happen at the in-place writer — once, not once per write.
func TestReadSnapshotAcrossScatter(t *testing.T) {
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", matrix2x2(1, 2, 3, 4))
	scatter := v.ScatterSub(g.Const([]int32{1}), g.Const([][]float32{{1, 1}}))
	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.RunTargets(scatter); err != nil {
			t.Fatal(err)
		}
	}
	wantValues(t, "snapshot read before two ScatterSubs", snap, 1, 2, 3, 4)
	now, err := s.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "v", now, 1, 2, 1, 2)
}
