package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry: any input either fails to decode or decodes to an entry
// that re-encodes to exactly the input — the decoder accepts one encoding
// per entry — and no input makes it panic.
func FuzzDecodeEntry(f *testing.F) {
	for _, e := range []SavedLibraryEntry{
		{Subcluster: "medicine"},
		{Subcluster: "medicine", Result: &SavedResult{Version: FormatVersion, VideoName: "v", FPS: 25,
			Shots:    []SavedShot{{Index: 1, End: 9, Color: []float64{0, 0.5, 0, -0.25}, Texture: []float64{1, 2}}},
			Groups:   []SavedGroup{{Shots: []int{0}, RepShots: []int{}}},
			Scenes:   []SavedScene{{Groups: []int{0}, RepGroup: -1, Event: 2}},
			Clusters: []SavedCluster{{Scenes: []int{0}, RepGroup: 0}},
			Events:   map[int]int{0: 2, 4: 1},
		}},
	} {
		b, err := AppendEntry(nil, &e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{entryCodec, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		again, err := AppendEntry(nil, &e)
		if err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in % x\nout % x", data, again)
		}
	})
}
