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
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
)

// magic identifies checkpoint files; the trailing digit versions the format.
const magic = "TFGOCKPT1"

// Write stores the named tensors at path atomically.
func Write(path string, tensors map[string]*tensor.Tensor) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())

	w := bufio.NewWriter(tmp)
	if _, err := w.WriteString(magic); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(tensors)))
	if _, err := w.Write(count[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Sort names so identical state produces identical bytes.
	names := make([]string, 0, len(tensors))
	for name := range tensors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var nameLen [4]byte
		binary.LittleEndian.PutUint32(nameLen[:], uint32(len(name)))
		if _, err := w.Write(nameLen[:]); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if _, err := w.WriteString(name); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if _, err := tensors[name].WriteTo(w); err != nil {
			return fmt.Errorf("checkpoint: writing %q: %w", name, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
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
	r := bufio.NewReader(f)

	head := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("checkpoint: reading header of %s: %w", path, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file", path)
	}
	left := info.Size() - int64(len(head))
	// An entry is at least a name length and a rank-0 tensor header.
	n := binary.LittleEndian.Uint32(head[len(magic):])
	if int64(n)*(4+5) > left {
		return nil, fmt.Errorf("checkpoint: %s claims %d tensors in %d bytes", path, n, left)
	}
	out := map[string]*tensor.Tensor{}
	for i := uint32(0); i < n; i++ {
		var nameLen [4]byte
		if _, err := io.ReadFull(r, nameLen[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		left -= 4
		size := int64(binary.LittleEndian.Uint32(nameLen[:]))
		if size > left {
			return nil, fmt.Errorf("checkpoint: %s claims a %d-byte name with %d bytes left", path, size, left)
		}
		nameBytes := make([]byte, size)
		if _, err := io.ReadFull(r, nameBytes); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		left -= size
		t, used, err := tensor.ReadFromLimit(r, left)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reading %q: %w", string(nameBytes), err)
		}
		left -= used
		out[string(nameBytes)] = t
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

// Latest returns the newest checkpoint matching prefix-<step> in its
// directory, or "" if none exists.
func Latest(prefix string) (string, error) {
	path, _, err := LatestStep(prefix)
	return path, err
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
