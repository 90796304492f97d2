package jobspec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobspecDecode feeds arbitrary bytes to Decode, the one decoding
// path of repro -job and simd's POST /v1/jobs. Decode must never
// panic, and it accepts only input that is exactly one JSON value. For
// every spec it accepts, Normalized must be idempotent and the spec
// must survive a JSON round trip: it re-decodes without error and
// marshals to the same bytes. Plain `go test` replays the seed
// corpus under testdata/fuzz/FuzzJobspecDecode, which includes a spec
// followed by a stray closing bracket.
func FuzzJobspecDecode(f *testing.F) {
	f.Add([]byte(validPoint()))
	f.Add([]byte(validGrid()))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input that is not one JSON value: %q", data)
		}
		n := s.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(n, again) {
			t.Fatalf("Normalized is not idempotent:\n%+v\n%+v", n, again)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		back, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("accepted spec does not re-decode: %v\n%s", err, enc)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("JSON round trip changed the spec (err %v):\n%s\n%s", err, enc, again)
		}
	})
}
