package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord exercises the envelope decoder on arbitrary bytes from
// both directions: (1) any non-empty payload EncodeRecord accepts must
// round-trip through DecodeRecord byte for byte — the version-2 envelope
// carries it opaquely, whatever the bytes — and (2) arbitrary input must
// either decode to one of the known record kinds — a legacy frame always
// decoding as a registration whose payload is the input itself — or fail,
// never panic and never invent a typed record with missing parts.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(`{"subcluster":"medicine","result":{"videoName":"v1"}}`)) // legacy
	f.Add([]byte(`{"type":"register","version":1,"key":"v1","payload":{"a":1}}`))
	f.Add([]byte(`{"type":"tombstone","version":1,"key":"v1"}`))
	f.Add([]byte(`{"type":"replace","version":1,"key":"v1","payload":{}}`))
	f.Add([]byte("\x02\x01\x02v1payload"))
	f.Add([]byte("\x02\x02\x02v1"))
	f.Add([]byte("\x02\x03\x02v1\x00"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			frame, err := EncodeRecord(RecordRegister, "fuzz-key", data)
			if err != nil {
				t.Fatalf("encoding a non-empty payload failed: %v", err)
			}
			rec, err := DecodeRecord(frame)
			if err != nil {
				t.Fatalf("round trip failed: %v", err)
			}
			if rec.Type != RecordRegister || rec.Version != RecordVersion || rec.Key != "fuzz-key" || !bytes.Equal(rec.Payload, data) {
				t.Fatalf("round trip mutated record: %+v, want payload %q", rec, data)
			}
		}

		// Decode: arbitrary input.
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		switch rec.Type {
		case RecordRegister, RecordReplace:
			if rec.Version == 0 {
				// Legacy fallback: the payload is the input itself and the
				// kind is always register.
				if rec.Type != RecordRegister || !bytes.Equal(rec.Payload, data) {
					t.Fatalf("legacy decode invariant broken: %+v", rec)
				}
			} else if rec.Key == "" || len(rec.Payload) == 0 {
				t.Fatalf("typed %s missing key or payload: %+v", rec.Type, rec)
			}
		case RecordTombstone:
			if rec.Key == "" {
				t.Fatalf("tombstone without key: %+v", rec)
			}
			if rec.Version == RecordVersion && len(rec.Payload) != 0 {
				t.Fatalf("binary tombstone with payload: %+v", rec)
			}
		default:
			t.Fatalf("decoder produced unknown kind %q", rec.Type)
		}
	})
}
