package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Record envelope: the logical layer above the byte framing of record.go.
// Every frame payload describes one library mutation. This build writes
// version 2:
//
//	byte    2 (RecordVersion)
//	byte    kind: 1 register, 2 tombstone, 3 replace
//	uvarint key length, then the key (the video name)
//	rest    the payload: opaque bytes, empty for a tombstone
//
// The package never looks inside a payload. Two older shapes are still
// read, so existing data directories recover unchanged; both are JSON and
// start with '{', never with 2:
//
//   - Version 1: {"type":"register","version":1,"key":"v1","payload":{…}},
//     whose payload is a JSON document.
//   - Legacy (pre-envelope data dirs): a bare JSON document with no "type"
//     member. It always means a registration, and its key is probed from
//     the document's result.videoName.
//
// The envelope lives in this package — not in classminer — because the
// compactor must classify records without the library: a register or
// replace record is dead once a later tombstone or replace for the same key
// exists, and that rule is all compaction needs to know about payloads.
const (
	// RecordRegister adds a video under a new name. Replay skips it when
	// the name already exists (the checkpoint-straddler case: the record is
	// both in the snapshot and on the log tail).
	RecordRegister = "register"
	// RecordTombstone deletes a video by name. Replay applies it even when
	// the registration came from the checkpoint snapshot — delete wins over
	// a straddling checkpointed registration — and ignores unknown names
	// (the tombstone may itself straddle a checkpoint that already dropped
	// the video).
	RecordTombstone = "tombstone"
	// RecordReplace atomically supersedes a video: replay removes any
	// existing registration under the key and installs the payload. One
	// record, so a crash can never leave the delete without the re-add.
	RecordReplace = "replace"
)

// RecordVersion is the envelope version this build writes. Records of an
// earlier version decode with their own Version, so a consumer knows which
// payload format they carry.
const RecordVersion = 2

// kinds maps a version-2 kind byte to its record kind (0 is unused), and
// kindByte back.
var (
	kinds    = [...]string{1: RecordRegister, 2: RecordTombstone, 3: RecordReplace}
	kindByte = map[string]byte{RecordRegister: 1, RecordTombstone: 2, RecordReplace: 3}
)

// Record is one decoded log record.
type Record struct {
	// Type is one of the Record* kinds.
	Type string
	// Version is the envelope version: RecordVersion, 1 for a JSON
	// envelope, 0 for a legacy bare frame.
	Version int
	// Key is the video name the record is about — the identity compaction
	// and replay dedupe on. Empty only for a legacy frame whose payload
	// could not be probed (such records are never dropped by compaction).
	Key string
	// Payload is the kind-specific body, empty for a tombstone. Version 0
	// and 1 payloads are the JSON documents earlier releases wrote (for a
	// legacy frame, the whole frame).
	Payload []byte
}

// EncodeRecord serialises one typed record for Append. payload may be nil
// for tombstones.
func EncodeRecord(kind, key string, payload []byte) ([]byte, error) {
	switch kind {
	case RecordRegister, RecordReplace:
		if len(payload) == 0 {
			return nil, fmt.Errorf("wal: %s record needs a payload", kind)
		}
	case RecordTombstone:
		if len(payload) != 0 {
			return nil, fmt.Errorf("wal: tombstone record takes no payload")
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %q", kind)
	}
	if key == "" {
		return nil, fmt.Errorf("wal: %s record needs a key", kind)
	}
	b := make([]byte, 0, 2+binary.MaxVarintLen64+len(key)+len(payload))
	b = append(b, RecordVersion, kindByte[kind])
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	return append(b, payload...), nil
}

// DecodeRecord parses one frame payload into a Record. The returned
// Payload may alias frame; callers that retain it past the frame's
// lifetime must copy.
func DecodeRecord(frame []byte) (Record, error) {
	var rec Record
	if err := DecodeRecordInto(&rec, frame); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// DecodeRecordInto is DecodeRecord writing into *rec — replay and
// compaction loops reuse one scratch Record across millions of frames.
func DecodeRecordInto(rec *Record, frame []byte) error {
	if len(frame) > 0 && frame[0] == RecordVersion {
		return decodeBinary(rec, frame[1:])
	}
	return decodeJSON(rec, frame)
}

// decodeBinary parses a version-2 record after its version byte.
func decodeBinary(rec *Record, b []byte) error {
	if len(b) == 0 || int(b[0]) >= len(kinds) || b[0] == 0 {
		return fmt.Errorf("wal: bad record kind")
	}
	kind := kinds[b[0]]
	n, w := binary.Uvarint(b[1:])
	if w <= 0 || n == 0 || n > uint64(len(b)-1-w) {
		return fmt.Errorf("wal: %s record has a bad key", kind)
	}
	b = b[1+w:]
	payload := b[n:]
	if (kind == RecordTombstone) != (len(payload) == 0) {
		return fmt.Errorf("wal: %s record has a bad payload", kind)
	}
	*rec = Record{Type: kind, Version: RecordVersion, Key: string(b[:n]), Payload: payload}
	return nil
}

// jsonEnvelope is the version-1 envelope, read for compatibility only.
// Result mirrors just enough of a legacy bare frame (a JSON
// store.SavedLibraryEntry) to pull its video name out in the same parse;
// envelope_test.go pins it against store's JSON tags.
type jsonEnvelope struct {
	Type    string          `json:"type"`
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	Result  struct {
		VideoName string `json:"videoName"`
	} `json:"result"`
}

// decodeJSON parses a version-1 envelope or a legacy bare frame (no
// "type" member). A legacy frame's key probe is best-effort: a frame it
// cannot name still registers (classminer decodes the full payload); it is
// only invisible to compaction.
func decodeJSON(rec *Record, frame []byte) error {
	var env jsonEnvelope
	if err := json.Unmarshal(frame, &env); err != nil {
		return fmt.Errorf("wal: decoding record envelope: %w", err)
	}
	if env.Type == "" {
		*rec = Record{Type: RecordRegister, Version: 0, Key: env.Result.VideoName, Payload: frame}
		return nil
	}
	switch env.Type {
	case RecordRegister, RecordTombstone, RecordReplace:
	default:
		return fmt.Errorf("wal: unknown record type %q", env.Type)
	}
	if env.Version != 1 {
		return fmt.Errorf("wal: JSON record version %d unsupported (want 1)", env.Version)
	}
	if env.Key == "" {
		return fmt.Errorf("wal: %s record has no key", env.Type)
	}
	if (env.Type == RecordRegister || env.Type == RecordReplace) && len(env.Payload) == 0 {
		return fmt.Errorf("wal: %s record has no payload", env.Type)
	}
	*rec = Record{Type: env.Type, Version: 1, Key: env.Key, Payload: env.Payload}
	return nil
}

// supersedes reports whether a record of this kind makes every earlier
// record for the same key dead: a tombstone or replace fully determines the
// key's state regardless of what preceded it, a register does not (replay
// skips it when the key already exists, so dropping an earlier record would
// change what survives).
func (r Record) supersedes() bool {
	return r.Type == RecordTombstone || r.Type == RecordReplace
}

// FrameOverhead is the per-record framing cost in bytes on top of the
// payload (the length + CRC header). Callers accounting for on-log record
// sizes — the library's dead-bytes bookkeeping — add it to len(payload).
const FrameOverhead = headerSize
