package cert_test

import (
	"bytes"
	"testing"

	"templatedep/internal/cert"
)

// FuzzDecode throws arbitrary bytes at the certificate decoder. It must
// never panic, and a decoded certificate must encode to bytes that decode
// and encode again to themselves. The seed corpus in
// testdata/fuzz/FuzzDecode holds one certificate of each kind.
//
// cert.Check is deliberately not fuzzed: it is not metered by the
// governor, so a small forged certificate can make it run for an
// exponentially long time.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := cert.Decode(data)
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded certificate does not encode: %v", err)
		}
		c2, err := cert.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded certificate rejected: %v\n%s", err, enc)
		}
		enc2, err := c2.Encode()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixpoint (%v):\n%s\nvs\n%s", err, enc, enc2)
		}
	})
}
