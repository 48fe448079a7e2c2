package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

const fuzzSchema = "test-schema/v1"

// FuzzReadBlob feeds arbitrary bytes to the blob parser: it must never
// panic, and it may return a payload only when the header line is
// valid JSON whose magic and schema match and whose size and sha256
// describe exactly the bytes after the line.
func FuzzReadBlob(f *testing.F) {
	valid, err := encodeBlob(fuzzSchema, []byte("gob payload bytes"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0x01
	bigHeader := []byte(`{"magic":"` + blobMagic + `","pad":"` + strings.Repeat("x", 5<<10) + `"}` + "\n")

	bad := [][]byte{
		valid[:len(valid)-3],                       // truncated payload
		bytes.ReplaceAll(valid, []byte("\n"), nil), // no newline
		bigHeader, // 5 KiB header
		flipped,   // flipped payload bit
	}
	if _, err := verifyBlob(valid, fuzzSchema); err != nil {
		f.Fatalf("valid seed rejected: %v", err)
	}
	f.Add(valid)
	for i, b := range bad {
		if _, err := verifyBlob(b, fuzzSchema); err == nil {
			f.Fatalf("bad seed %d accepted", i)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := verifyBlob(b, fuzzSchema)
		if err != nil {
			return
		}
		line, rest, ok := bytes.Cut(b, []byte("\n"))
		if !ok || len(line) > maxHeader {
			t.Fatalf("accepted a blob without a header line of at most %d bytes", maxHeader)
		}
		var h header
		if err := json.Unmarshal(line, &h); err != nil {
			t.Fatalf("accepted an unparsable header: %v", err)
		}
		sum := sha256.Sum256(rest)
		switch {
		case h.Magic != blobMagic:
			t.Fatalf("accepted magic %q", h.Magic)
		case h.Schema != fuzzSchema:
			t.Fatalf("accepted schema %q", h.Schema)
		case h.Size != int64(len(rest)):
			t.Fatalf("accepted size %d for a %d-byte payload", h.Size, len(rest))
		case h.SHA256 != hex.EncodeToString(sum[:]):
			t.Fatalf("accepted checksum %q", h.SHA256)
		case !bytes.Equal(payload, rest):
			t.Fatal("returned payload differs from the bytes after the header")
		}
	})
}
