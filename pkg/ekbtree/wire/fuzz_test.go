package wire

import (
	"reflect"
	"testing"
)

// FuzzDecodeRequest drives the decoder the server runs on a connection's
// first frame, before authentication. It must never panic, and any payload
// it accepts must survive a re-encode and decode as an equal request. Byte
// equality is not required: binary.Uvarint accepts overlong varints, which
// re-encode shorter. The seed corpus under testdata/fuzz (regenerated by
// tools/fuzzcorpus) holds one payload per op plus hostile list counts.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		again, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("re-encoded %s no longer decodes: %v", req.op(), err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("%s round trip: got %+v, want %+v", req.op(), again, req)
		}
	})
}
