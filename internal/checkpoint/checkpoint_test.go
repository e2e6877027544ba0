package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt-1")
	data := map[string]*tensor.Tensor{
		"w":     tensor.NewRNG(1).Normal(tensor.Float32, tensor.Shape{4, 3}, 0, 1),
		"b":     tensor.FromFloat64s(tensor.Shape{3}, []float64{1, 2, 3}),
		"step":  tensor.ScalarInt(42),
		"name":  tensor.ScalarString("model"),
		"flags": tensor.FromBools(tensor.Shape{2}, []bool{true, false}),
	}
	if err := Write(path, data); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(data) {
		t.Fatalf("read %d tensors, wrote %d", len(back), len(data))
	}
	for name, want := range data {
		got, ok := back[name]
		if !ok || !got.Equal(want) {
			t.Errorf("tensor %q changed in round trip", name)
		}
	}
	single, err := ReadTensor(path, "step")
	if err != nil || single.IntAt(0) != 42 {
		t.Errorf("ReadTensor = %v, %v", single, err)
	}
	if _, err := ReadTensor(path, "missing"); err == nil {
		t.Error("missing tensor read succeeded")
	}
}

func TestReadRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bad); err == nil {
		t.Error("corrupt file accepted")
	}
	if _, err := Read(filepath.Join(dir, "nonexistent")); err == nil {
		t.Error("missing file accepted")
	}
	// Truncated checkpoint.
	good := filepath.Join(dir, "good-1")
	if err := Write(good, map[string]*tensor.Tensor{"x": tensor.Scalar(1)}); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(good)
	if err := os.WriteFile(bad, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bad); err == nil {
		t.Error("truncated file accepted")
	}
}

// TestReadBoundsHostileCounts: a count, name length or tensor shape that
// claims more than the file holds is an error before anything is sized from
// it — the 21-byte overflowing tensor (which used to panic the restoring
// task) included.
func TestReadBoundsHostileCounts(t *testing.T) {
	u32 := func(v uint32) string { return string(binary.LittleEndian.AppendUint32(nil, v)) }
	overflow := "\x04" + u32(4) + u32(math.MaxUint32) + u32(math.MaxUint32) + u32(math.MaxUint32) + u32(math.MaxUint32)
	if len(overflow) != 21 {
		t.Fatalf("overflow stream is %d bytes", len(overflow))
	}
	path := filepath.Join(t.TempDir(), "hostile-1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, body := range map[string]string{
		"tensor dims overflow":  u32(1) + u32(1) + "x" + overflow,
		"tensor past the file":  u32(1) + u32(1) + "x" + "\x04" + u32(1) + u32(1<<28),
		"count past the file":   u32(math.MaxUint32),
		"name past the file":    u32(1) + u32(math.MaxUint32) + "x",
		"string elem past file": u32(1) + u32(1) + "x" + "\x06" + u32(0) + u32(1<<30),
	} {
		if err := os.WriteFile(path, []byte(magic+body), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Read(path); err == nil {
			t.Errorf("%s: Read accepted the file: %v", name, got)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing the hostile files allocated %d bytes", got)
	}
}

func TestDeterministicBytes(t *testing.T) {
	dir := t.TempDir()
	data := map[string]*tensor.Tensor{"b": tensor.Scalar(2), "a": tensor.Scalar(1)}
	p1, p2 := filepath.Join(dir, "c1-1"), filepath.Join(dir, "c2-1")
	if err := Write(p1, data); err != nil {
		t.Fatal(err)
	}
	if err := Write(p2, data); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Error("identical state produced different checkpoint bytes")
	}
}

func TestLatestAndRetention(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "model")
	for i := 1; i <= 4; i++ {
		if err := Write(prefix+"-"+string(rune('0'+i)), map[string]*tensor.Tensor{
			"step": tensor.ScalarInt(int32(i)),
		}); err != nil {
			t.Fatal(err)
		}
		// mtime resolution can be coarse; force ordering.
		tm := time.Now().Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(prefix+"-"+string(rune('0'+i)), tm, tm); err != nil {
			t.Fatal(err)
		}
	}
	latest, _, err := LatestStep(prefix)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadTensor(latest, "step")
	if err != nil || st.IntAt(0) != 4 {
		t.Errorf("latest step = %v, %v", st, err)
	}
	if err := Retention(prefix, 2); err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(prefix + "-*")
	if len(left) != 2 {
		t.Errorf("retention kept %d files", len(left))
	}
	// LatestStep on an empty prefix is not an error.
	none, _, err := LatestStep(filepath.Join(dir, "other"))
	if err != nil || none != "" {
		t.Errorf("LatestStep(empty) = %q, %v", none, err)
	}
}

func TestLatestIgnoresTempFilesAndOrdersBySteps(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "model")
	for _, step := range []int{5, 100} {
		if err := Write(fmt.Sprintf("%s-%d", prefix, step), map[string]*tensor.Tensor{
			"step": tensor.ScalarInt(int32(step)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// An in-flight Write (same naming scheme as os.CreateTemp produces) and
	// an unrelated directory both match the prefix-* glob; neither may win.
	tmp := prefix + "-200.tmp123456"
	if err := os.WriteFile(tmp, []byte("torn, half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(prefix+"-300", 0o755); err != nil {
		t.Fatal(err)
	}
	// The low-step checkpoint is the most recently modified — as after a
	// restore from a copied-in older checkpoint. Step order must win.
	tm := time.Now().Add(time.Hour)
	for _, p := range []string{prefix + "-5", tmp} {
		if err := os.Chtimes(p, tm, tm); err != nil {
			t.Fatal(err)
		}
	}
	path, step, err := LatestStep(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if path != prefix+"-100" || step != 100 {
		t.Errorf("LatestStep = %q, %d; want %q, 100", path, step, prefix+"-100")
	}
	if st, err := ReadTensor(path, "step"); err != nil || st.IntAt(0) != 100 {
		t.Errorf("latest checkpoint unreadable: %v, %v", st, err)
	}
}

func TestRetentionSparesTempFiles(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "model")
	for _, step := range []int{1, 2, 3} {
		if err := Write(fmt.Sprintf("%s-%d", prefix, step), map[string]*tensor.Tensor{
			"step": tensor.ScalarInt(int32(step)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A concurrent Write's recently created temp file must survive (it is
	// in flight), while one abandoned by a crash long ago is swept.
	tmp := prefix + "-9.tmp42"
	if err := os.WriteFile(tmp, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := prefix + "-8.tmp7"
	if err := os.WriteFile(orphan, []byte("crashed mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	if err := Retention(prefix, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Errorf("retention removed the in-flight temp file: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("retention left the orphaned temp file behind: %v", err)
	}
	if _, err := os.Stat(prefix + "-1"); !os.IsNotExist(err) {
		t.Errorf("lowest-step checkpoint not pruned: %v", err)
	}
	for _, step := range []int{2, 3} {
		if _, err := os.Stat(fmt.Sprintf("%s-%d", prefix, step)); err != nil {
			t.Errorf("retention deleted kept checkpoint %d: %v", step, err)
		}
	}
}

// TestFixtureBytes: testdata/v1.ckpt, written by the format's first Write,
// reads back as the float32, int64, String and empty tensors it holds, and
// Write reproduces it byte for byte.
func TestFixtureBytes(t *testing.T) {
	want := map[string]*tensor.Tensor{
		"w":     tensor.FromFloat32s(tensor.Shape{2, 3}, []float32{1, -2.5, 0, 3.25, 0, 7}),
		"step":  tensor.FromInt64s(tensor.Shape{}, []int64{42}),
		"vocab": tensor.FromStrings(tensor.Shape{3}, []string{"", "héllo", "\x00\xff"}),
		"empty": tensor.New(tensor.Float32, tensor.Shape{0, 4}),
	}
	got, err := Read("testdata/v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d tensors, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !g.Equal(w) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	path := filepath.Join(t.TempDir(), "ckpt-1")
	if err := Write(path, got); err != nil {
		t.Fatal(err)
	}
	fixture, _ := os.ReadFile("testdata/v1.ckpt")
	if again, _ := os.ReadFile(path); !bytes.Equal(again, fixture) {
		t.Errorf("Write of the fixture's tensors gives %q, want %q", again, fixture)
	}
}

// FuzzCheckpointRead: Read errors, or returns tensors that Write stores and
// Read returns again unchanged. The hostile seeds are the files under
// testdata/fuzz/FuzzCheckpointRead.
func FuzzCheckpointRead(f *testing.F) {
	fixture, err := os.ReadFile("testdata/v1.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path, again := filepath.Join(dir, "in-1"), filepath.Join(dir, "out-1")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Read(path)
		if err != nil {
			return
		}
		if err := Write(again, got); err != nil {
			t.Fatalf("tensors read from a file do not write: %v", err)
		}
		back, err := Read(again)
		if err != nil || len(back) != len(got) {
			t.Fatalf("a written file reads back as %d tensors, %v; want %d", len(back), err, len(got))
		}
		for name, x := range got {
			var a, b bytes.Buffer
			x.WriteTo(&a)
			back[name].WriteTo(&b)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s changed across Write → Read", name)
			}
		}
	})
}
