// Package checkpoint implements the user-level fault-tolerance file format
// of the paper (§4.3): Save writes named tensors to a checkpoint file and
// Restore reads them back. Checkpoints are deliberately not transactional
// with respect to concurrent training updates — the paper argues weak
// consistency is acceptable for asynchronous SGD — but each file itself is
// written atomically (temp file + rename) so a crash never leaves a torn
// checkpoint behind.
package checkpoint

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// magic identifies checkpoint files; the trailing digit versions the format.
const magic = "TFGOCKPT1"

// entry is one named tensor of a checkpoint file.
type entry struct {
	name string
	t    *tensor.Tensor
}

// wireFile lists a checkpoint file's fields for internal/wire: magic, then
// the entries, each a name and a tensor.
func wireFile(c *wire.Codec, entries *[]entry) {
	c.Magic(magic)
	wire.List(c, entries, func(e *entry) {
		c.Str(&e.name)
		c.Tensor(&e.t)
	})
}

// Write stores the named tensors at path atomically.
func Write(path string, tensors map[string]*tensor.Tensor) error {
	// Sorted names, so identical state produces identical bytes.
	var entries []entry
	for _, name := range slices.Sorted(maps.Keys(tensors)) {
		entries = append(entries, entry{name, tensors[name]})
	}
	c := wire.NewEncoder()
	if wireFile(c, &entries); c.End() != nil {
		return fmt.Errorf("checkpoint: %w", c.End())
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close() // for the error paths; on success it is already closed
	// The first failure of the write, flush, sync, close and rename.
	w := bufio.NewWriter(tmp)
	_, err = c.WriteTo(w)
	for _, step := range []func() error{w.Flush, tmp.Sync, tmp.Close, func() error { return os.Rename(tmp.Name(), path) }} {
		if err == nil {
			err = step()
		}
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Read loads every tensor stored at path. The file is untrusted input: no
// count, name or tensor in it is sized beyond the bytes the file still holds.
func Read(path string) (map[string]*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var entries []entry
	c := wire.NewDecoder(bufio.NewReader(f), int(info.Size()))
	if wireFile(c, &entries); c.End() != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, c.End())
	}
	out := make(map[string]*tensor.Tensor, len(entries))
	for _, e := range entries {
		out[e.name] = e.t
	}
	return out, nil
}

// ReadTensor loads one named tensor from a checkpoint.
func ReadTensor(path, name string) (*tensor.Tensor, error) {
	all, err := Read(path)
	if err != nil {
		return nil, err
	}
	t, ok := all[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: %s has no tensor %q", path, name)
	}
	return t, nil
}

// stepOf parses the step out of a "prefix-<step>" checkpoint path. It
// rejects anything whose suffix is not a plain decimal number — in
// particular the "prefix-<step>.tmp*" temp files Write creates in the same
// directory, which must never be read as (or retained like) a finished
// checkpoint.
func stepOf(prefix, path string) (int64, bool) {
	rest, ok := strings.CutPrefix(path, prefix+"-")
	if !ok || rest == "" {
		return 0, false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// LatestStep returns the finished checkpoint with the highest step number
// among prefix-<step> files, or "" when none exists. Ordering by the parsed
// step — not file modification time — means an older checkpoint restored or
// copied into place cannot masquerade as newest, and in-flight temp files
// are never candidates.
func LatestStep(prefix string) (path string, step int64, err error) {
	matches, err := filepath.Glob(prefix + "-*")
	if err != nil {
		return "", 0, err
	}
	for _, m := range matches {
		s, ok := stepOf(prefix, m)
		if !ok {
			continue
		}
		if info, err := os.Stat(m); err != nil || info.IsDir() {
			continue
		}
		if path == "" || s > step {
			path, step = m, s
		}
	}
	return path, step, nil
}

// orphanAge is how old a temp file must be before Retention treats it as
// abandoned by a crashed Write rather than in flight. Any live Write
// finishes (or fails) far faster than this.
const orphanAge = time.Hour

// Retention keeps the keep highest-step checkpoints matching prefix-<step>
// and deletes the rest, implementing the customizable retention scheme the
// paper mentions (§4.3). Files whose suffix is not a step number are left
// alone with one exception: temp files from a Write that crashed mid-save
// (".tmp" in the suffix, untouched for orphanAge) are swept, so repeated
// kill-during-checkpoint cycles cannot accumulate garbage.
func Retention(prefix string, keep int) error {
	matches, err := filepath.Glob(prefix + "-*")
	if err != nil {
		return err
	}
	type entry struct {
		path string
		step int64
	}
	entries := make([]entry, 0, len(matches))
	for _, m := range matches {
		s, ok := stepOf(prefix, m)
		if !ok {
			if info, err := os.Stat(m); err == nil && !info.IsDir() &&
				strings.Contains(m[len(prefix):], ".tmp") &&
				time.Since(info.ModTime()) > orphanAge {
				_ = os.Remove(m)
			}
			continue
		}
		if info, err := os.Stat(m); err != nil || info.IsDir() {
			continue
		}
		entries = append(entries, entry{m, s})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].step > entries[j].step })
	for i := keep; i < len(entries); i++ {
		if err := os.Remove(entries[i].path); err != nil {
			return err
		}
	}
	return nil
}
