package tensor

import "bytes"

// GobEncode implements gob.GobEncoder using the canonical binary encoding,
// so tensors embedded in gob messages (GraphDef constants) ride the same
// format as checkpoints and the transport's frames.
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
