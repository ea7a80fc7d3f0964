package wal

import (
	"bytes"
	"encoding/json"
	"testing"

	"classminer/internal/store"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		kind    string
		key     string
		payload []byte
	}{
		{RecordRegister, "v1", []byte(`{"subcluster":"medicine","result":null}`)},
		{RecordReplace, "v2", []byte(`{"subcluster":"nursing","result":null}`)},
		{RecordTombstone, "v3", nil},
	}
	for _, c := range cases {
		frame, err := EncodeRecord(c.kind, c.key, c.payload)
		if err != nil {
			t.Fatalf("encode %s: %v", c.kind, err)
		}
		rec, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode %s: %v", c.kind, err)
		}
		if rec.Type != c.kind || rec.Key != c.key || rec.Version != RecordVersion {
			t.Fatalf("decoded %+v, want kind %s key %s", rec, c.kind, c.key)
		}
		if !bytes.Equal(rec.Payload, c.payload) {
			t.Fatalf("%s payload mutated: %q vs %q", c.kind, rec.Payload, c.payload)
		}
	}
}

// TestEnvelopeLegacyFrame pins the legacy path against store's actual
// encoding: a bare SavedLibraryEntry document — exactly what pre-envelope
// data directories hold — must decode as a version-0 registration whose
// payload is the whole frame and whose key is the probed video name. If
// store's JSON tags ever drift from jsonEnvelope's Result probe, this test
// breaks first.
func TestEnvelopeLegacyFrame(t *testing.T) {
	entry := store.SavedLibraryEntry{
		Subcluster: "medicine",
		Result:     &store.SavedResult{Version: store.FormatVersion, VideoName: "legacy-vid"},
	}
	frame, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecord(frame)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if rec.Type != RecordRegister || rec.Version != 0 {
		t.Fatalf("legacy frame decoded as %+v, want version-0 register", rec)
	}
	if rec.Key != "legacy-vid" {
		t.Fatalf("legacy key probe = %q, want %q", rec.Key, "legacy-vid")
	}
	if !bytes.Equal(rec.Payload, frame) {
		t.Fatal("legacy payload is not the original frame")
	}
}

func TestEnvelopeRejectsMalformed(t *testing.T) {
	if _, err := EncodeRecord("mutate", "k", []byte("x")); err == nil {
		t.Fatal("unknown kind encoded")
	}
	if _, err := EncodeRecord(RecordRegister, "", []byte("x")); err == nil {
		t.Fatal("keyless register encoded")
	}
	if _, err := EncodeRecord(RecordRegister, "k", nil); err == nil {
		t.Fatal("payloadless register encoded")
	}
	if _, err := EncodeRecord(RecordTombstone, "k", []byte("x")); err == nil {
		t.Fatal("tombstone with payload encoded")
	}
	bad := [][]byte{
		[]byte(`{"type":"mutate","version":1,"key":"k"}`),   // unknown kind
		[]byte(`{"type":"register","version":9,"key":"k"}`), // future version
		[]byte(`{"type":"tombstone","version":1}`),          // no key
		[]byte(`{"type":"register","version":1,"key":"k"}`), // no payload
		[]byte(`[1,2,3]`),                   // not an object
		{RecordVersion},                     // no kind
		{RecordVersion, 9, 1, 'k', 'x'},     // unknown kind
		{RecordVersion, 1, 0, 'x'},          // empty key
		{RecordVersion, 1, 5, 'k', 'x'},     // key longer than the frame
		{RecordVersion, 1, 0x80},            // truncated key length
		{RecordVersion, 1, 1, 'k'},          // register without payload
		{RecordVersion, 2, 1, 'k', 'x'},     // tombstone with payload
		{RecordVersion + 1, 1, 1, 'k', 'x'}, // future version
	}
	for _, frame := range bad {
		if _, err := DecodeRecord(frame); err == nil {
			t.Fatalf("malformed frame %q decoded", frame)
		}
	}
}

// TestEnvelopeLegacyUnprobeableKey: a legacy-shaped frame whose video name
// cannot be found still decodes (classminer's full decoder handles or
// rejects it); the empty key only makes it invisible to compaction.
func TestEnvelopeLegacyUnprobeableKey(t *testing.T) {
	rec, err := DecodeRecord([]byte(`{"something":"else"}`))
	if err != nil {
		t.Fatalf("legacy-shaped frame: %v", err)
	}
	if rec.Type != RecordRegister || rec.Key != "" {
		t.Fatalf("decoded %+v, want keyless register", rec)
	}
}

// TestEnvelopeVersion1Frame: the JSON envelopes the previous release wrote
// still decode, reporting version 1 so the payload is read as JSON.
func TestEnvelopeVersion1Frame(t *testing.T) {
	rec, err := DecodeRecord([]byte(`{"type":"replace","version":1,"key":"v1","payload":{"subcluster":"medicine"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != RecordReplace || rec.Version != 1 || rec.Key != "v1" || string(rec.Payload) != `{"subcluster":"medicine"}` {
		t.Fatalf("decoded %+v", rec)
	}
	rec, err = DecodeRecord([]byte(`{"type":"tombstone","version":1,"key":"v1"}`))
	if err != nil || rec.Type != RecordTombstone || rec.Key != "v1" || len(rec.Payload) != 0 {
		t.Fatalf("tombstone decoded %+v, %v", rec, err)
	}
}
