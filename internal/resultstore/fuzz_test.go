package resultstore

import (
	"encoding/json"
	"hash/crc32"
	"testing"

	"morrigan/internal/runner"
)

// validEnvelope marshals one verifiable stored file for the seed corpus.
func validEnvelope(t testing.TB) []byte {
	t.Helper()
	key, res := testResult(t, 0)
	raw, err := json.Marshal(runner.NewStoredRecord(key, res))
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(envelope{
		Schema: SchemaVersion,
		CRC32C: crc32.Checksum(raw, castagnoli),
		Record: raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// FuzzEnvelope hammers decodeRecord — the store's entire untrusted-input
// surface — with arbitrary bytes: whatever the corruption (bit flips,
// truncation, hostile JSON, forged checksums), decoding must return an error
// or a fully verified record, and never panic.
func FuzzEnvelope(f *testing.F) {
	valid := validEnvelope(f)
	f.Add(valid)
	f.Add([]byte(``))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1,"crc32c":0,"record":{}}`))
	f.Add([]byte(`{"schema":1,"crc32c":12345,"record":{"key":"ab","stats":{}}}`))
	// Truncations and a flipped byte of the valid envelope.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := decodeRecord(raw)
		if err != nil {
			return
		}
		// A decode that succeeds must have fully verified the record: the
		// stored key re-derives from the stored components.
		if !rec.Verified() {
			t.Fatalf("decodeRecord accepted a record whose key %q does not derive from its components", rec.Key)
		}
	})
}
