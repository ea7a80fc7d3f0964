package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sameBits reports whether two entries are identical, floats compared by
// bit pattern (so NaN payloads and -0.0 count) and nil told apart from
// empty everywhere.
func sameBits(a, b SavedLibraryEntry) bool {
	floats := func(x, y []float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.Result == nil || b.Result == nil {
		return reflect.DeepEqual(a, b)
	}
	ra, rb := *a.Result, *b.Result
	if math.Float64bits(ra.FPS) != math.Float64bits(rb.FPS) || len(ra.Shots) != len(rb.Shots) ||
		(ra.Shots == nil) != (rb.Shots == nil) {
		return false
	}
	for i := range ra.Shots {
		sa, sb := ra.Shots[i], rb.Shots[i]
		if !floats(sa.Color, sb.Color) || !floats(sa.Texture, sb.Texture) {
			return false
		}
		sa.Color, sa.Texture, sb.Color, sb.Texture = nil, nil, nil, nil
		if !reflect.DeepEqual(sa, sb) {
			return false
		}
	}
	ra.FPS, rb.FPS, ra.Shots, rb.Shots = 0, 0, nil, nil
	return a.Subcluster == b.Subcluster && reflect.DeepEqual(ra, rb)
}

func codecCases(t *testing.T) map[string]SavedLibraryEntry {
	t.Helper()
	mined, err := EncodeResult(minedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	shot := func(color, texture []float64) SavedShot {
		return SavedShot{Index: 3, Start: -1, End: 1 << 40, RepFrame: 7, Color: color, Texture: texture}
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324,
		math.Float64frombits(0x7ff8_0000_0000_0bad), 0, math.MaxFloat64, -2.5e-310}
	return map[string]SavedLibraryEntry{
		"mined corpus result": {Subcluster: "medicine", Result: mined},
		"nil result":          {Subcluster: "nursing"},
		"all nil": {Result: &SavedResult{
			Version: FormatVersion, VideoName: "nils",
			Shots:  []SavedShot{shot(nil, nil)},
			Groups: []SavedGroup{{Index: 1}}, Scenes: []SavedScene{{Index: 2, RepGroup: -1}},
			Discarded: []SavedScene{{}}, Clusters: []SavedCluster{{RepGroup: -1}},
		}},
		"all empty": {Subcluster: "", Result: &SavedResult{
			Version: FormatVersion, VideoName: "", FPS: 25,
			Shots:     []SavedShot{shot([]float64{}, []float64{})},
			Groups:    []SavedGroup{{Shots: []int{}, RepShots: []int{}}},
			Scenes:    []SavedScene{{Groups: []int{}}},
			Discarded: []SavedScene{}, Clusters: []SavedCluster{{Scenes: []int{}}},
			Events: map[int]int{},
		}},
		"nil top-level slices": {Subcluster: "medicine", Result: &SavedResult{Version: FormatVersion}},
		"empty top-level slices": {Subcluster: "medicine", Result: &SavedResult{
			Shots: []SavedShot{}, Groups: []SavedGroup{}, Scenes: []SavedScene{},
			Discarded: []SavedScene{}, Clusters: []SavedCluster{},
		}},
		"special floats": {Subcluster: "medicine", Result: &SavedResult{
			Version: FormatVersion, VideoName: "floats", FPS: math.Inf(1),
			Shots: []SavedShot{shot(special, special), shot(special[3:5], special[:2])},
		}},
		"all-zero histogram": {Subcluster: "medicine", Result: &SavedResult{
			Version: FormatVersion, VideoName: "dark",
			Shots: []SavedShot{shot(make([]float64, 256), []float64{1, 2})},
		}},
		"zero shots": {Subcluster: "medicine", Result: &SavedResult{
			Version: FormatVersion, VideoName: "empty", FPS: 29.97, TotalFrames: 0,
		}},
		"events": {Subcluster: "medicine", Result: &SavedResult{
			Version: -7, VideoName: "ünïcode \x00 name",
			Events: map[int]int{5: 2, -3: 1, 0: 0, math.MaxInt64: math.MinInt64},
		}},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for name, in := range codecCases(t) {
		t.Run(name, func(t *testing.T) {
			enc, err := AppendEntry(nil, &in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := DecodeEntry(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(in, out) {
				t.Fatalf("round trip changed the entry:\n in %+v\nout %+v", in, out)
			}
			again, err := AppendEntry([]byte("prefix"), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again[len("prefix"):], enc) {
				t.Fatal("re-encoding is not byte-identical")
			}
		})
	}
}

// TestEntryRoundTripJSONIdentical: a decoded EncodeResult output marshals
// to exactly the JSON the original does — the codec loses nothing the
// JSON format could express.
func TestEntryRoundTripJSONIdentical(t *testing.T) {
	saved, err := EncodeResult(minedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := AppendEntry(nil, &SavedLibraryEntry{Subcluster: "medicine", Result: saved})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(saved)
	got, _ := json.Marshal(back.Result)
	if !bytes.Equal(got, want) {
		t.Fatal("decoded result marshals to different JSON")
	}
	if 3*len(enc) > len(want) {
		t.Fatalf("binary entry is %d B against %d B of JSON; want at least 3x smaller", len(enc), len(want))
	}
}

func TestDecodeEntryRejects(t *testing.T) {
	in := codecCases(t)["mined corpus result"]
	enc, err := AppendEntry(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeEntry(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(enc))
		}
	}
	shotEntry := func(color []float64) []byte {
		b, err := AppendEntry(nil, &SavedLibraryEntry{Result: &SavedResult{Shots: []SavedShot{{Color: color}}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Byte layout of shotEntry: codec, subcluster "", result marker,
	// Version, VideoName "", FPS (8), TotalFrames, Shots header, four shot
	// varints, then the Color header.
	const colorAt = 1 + 1 + 1 + 1 + 1 + 8 + 1 + 1 + 4
	one := shotEntry([]float64{0, 1})
	if one[colorAt] != 3 || one[colorAt+1] != 1 || one[colorAt+2] != 1 {
		t.Fatalf("unexpected layout % x", one)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), one...)) }
	bad := map[string][]byte{
		"empty":         nil,
		"codec":         mutate(func(b []byte) []byte { b[0] = 9; return b }),
		"result marker": mutate(func(b []byte) []byte { b[2] = 2; return b }),
		"trailing byte": append(append([]byte(nil), one...), 0),
		"overlong varint": mutate(func(b []byte) []byte {
			return append(append(b[:colorAt:colorAt], 0x83, 0x00), b[colorAt+1:]...)
		}),
		"explicit zero bin": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[colorAt+3:], 0)
			return b
		}),
		"bin out of range": mutate(func(b []byte) []byte { b[colorAt+2] = 2; return b }),
		"huge bin count": mutate(func(b []byte) []byte {
			return append(append(b[:colorAt:colorAt], binary.AppendUvarint(nil, 1<<40)...), b[colorAt+1:]...)
		}),
		"huge shot count": append(append([]byte(nil), one[:colorAt-5]...), binary.AppendUvarint(nil, 1<<62)...),
		"huge string":     {entryCodec, 0xff, 0xff, 0xff, 0x7f},
		"unsorted events": func() []byte {
			b, _ := AppendEntry(nil, &SavedLibraryEntry{Result: &SavedResult{Events: map[int]int{1: 1, 2: 2}}})
			// The events close the entry: swap the two (key, value) pairs.
			n := len(b)
			copy(b[n-4:], []byte{4, 4, 2, 2})
			return b
		}(),
	}
	for name, b := range bad {
		if _, err := DecodeEntry(b); err == nil {
			t.Errorf("%s: decoded % x", name, b)
		}
	}
	if _, err := AppendEntry(nil, &SavedLibraryEntry{Result: &SavedResult{
		Shots: []SavedShot{{Color: make([]float64, 1<<20)}},
	}}); err == nil {
		t.Fatal("a histogram past the decode cap encoded")
	}
}

func TestSnapshotStreams(t *testing.T) {
	cases := codecCases(t)
	entries := []SavedLibraryEntry{cases["mined corpus result"], cases["zero shots"], cases["nil result"]}
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), snapshotMagic) {
		t.Fatal("snapshot does not open with the magic")
	}
	lr, err := NewLibraryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		e, err := lr.Next()
		if err == io.EOF {
			if i != len(entries) {
				t.Fatalf("read %d entries, wrote %d", i, len(entries))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(e, entries[i]) {
			t.Fatalf("entry %d changed", i)
		}
	}
	// A snapshot cut anywhere short of its terminator is an error.
	for _, n := range []int{len(snapshotMagic) + 1, len(snapshotMagic) + 3, buf.Len() / 2, buf.Len() - 1} {
		if _, err := ReadLibrary(bytes.NewReader(buf.Bytes()[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("snapshot truncated to %d of %d bytes: err %v, want unexpected EOF", n, buf.Len(), err)
		}
	}
	var empty bytes.Buffer
	if err := WriteLibrary(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if lib, err := ReadLibrary(&empty); err != nil || len(lib.Videos) != 0 {
		t.Fatalf("empty snapshot: %+v, %v", lib, err)
	}
}

// TestReadLibraryJSON: a JSON snapshot, as earlier releases wrote it,
// still reads.
func TestReadLibraryJSON(t *testing.T) {
	saved, err := EncodeResult(minedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(SavedLibrary{
		Version: FormatVersion,
		Videos:  []SavedLibraryEntry{{Subcluster: "medicine", Result: saved}},
	}); err != nil {
		t.Fatal(err)
	}
	lib, err := ReadLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Videos) != 1 || lib.Videos[0].Subcluster != "medicine" {
		t.Fatalf("library = %+v", lib)
	}
	want, _ := json.Marshal(saved)
	got, _ := json.Marshal(lib.Videos[0].Result)
	if !bytes.Equal(got, want) {
		t.Fatal("JSON snapshot entry changed on read")
	}
}
