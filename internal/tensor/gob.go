package tensor

import "bytes"

// GobEncode implements gob.GobEncoder using the canonical binary encoding.
// The runtime writes no gob: the only caller left is the benchmark's gob
// mirror of the RPC messages (bench/), which goes when the benchmark measures
// the encoding the transport uses (ROADMAP item 1), and this file with it.
func (t *Tensor) GobEncode() ([]byte, error) {
	enc, raw, err := t.AppendEncoding(nil)
	return append(enc, raw...), err
}

// GobDecode implements gob.GobDecoder.
func (t *Tensor) GobDecode(data []byte) error {
	decoded, _, err := ReadFromLimit(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	*t = *decoded
	return nil
}
