package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Binary record format. One mined video (a SavedLibraryEntry) encodes as
//
//	codec byte (entryCodec)
//	subcluster        string
//	result present    byte 0 or 1, then the SavedResult fields in order:
//	  Version, VideoName, FPS, TotalFrames,
//	  Shots:     Index, Start, End, RepFrame, Color (sparse), Texture (dense)
//	  Groups:    Index, Kind, Shots, RepShots
//	  Scenes, Discarded: Index, Groups, RepGroup, Event
//	  Clusters:  Index, Scenes, RepGroup
//	  Events:    (scene, kind) pairs in ascending scene order
//
// Integers are zigzag varints; strings and slices are prefixed by a uvarint
// header that is 0 for nil and n+1 for n elements, so nil and empty stay
// distinct. A float64 is its 8 IEEE-754 bits, little endian, so every value
// (NaN payloads, ±Inf, -0.0, subnormals) round-trips bit-exact. A colour
// histogram is mostly zeros, so Color stores only its nonzero bins as
// (gap, bits) pairs; a bin counts as zero only when all its bits are, so
// -0.0 is stored. Events are written in sorted key order, so the encoding of an
// entry is deterministic, and the decoder accepts exactly one encoding per
// entry: overlong varints, unsorted event keys, explicit zero bins and
// trailing bytes are errors.
//
// A snapshot (WriteLibrary) is snapshotMagic, the FormatVersion as a
// uvarint, then every entry as a uvarint length and its bytes, then a zero
// length. Its first byte tells it apart from the JSON snapshots earlier
// releases wrote, which ReadLibrary still reads.
const (
	entryCodec    byte = 1
	snapshotMagic      = "\x89CML"
)

// Minimum encoded sizes, used to reject a length that cannot fit in the
// bytes left before allocating for it.
const (
	minShotBytes    = 6 // four varints and two slice headers
	minGroupBytes   = 4
	minSceneBytes   = 4
	minClusterBytes = 3
	minEventBytes   = 2
)

// sparseBudget caps how many colour bins an entry of n bytes may decode.
// A sparse vector's length is not bounded by its bytes (an all-zero
// histogram of any width is a few bytes), so without a cap a short input
// could demand an arbitrarily large allocation. The floor admits any small
// entry; the slope is twice what a shot of all-zero 256-bin histograms
// needs, and real shots need about a thirtieth of it.
func sparseBudget(n int) int { return 1<<16 + 64*n }

// AppendEntry appends the binary encoding of e to dst. It fails only when
// e's colour histograms are too wide for DecodeEntry's allocation cap.
func AppendEntry(dst []byte, e *SavedLibraryEntry) ([]byte, error) {
	enc := encoder{b: dst}
	start := len(dst)
	enc.b = append(enc.b, entryCodec)
	enc.str(e.Subcluster)
	if r := e.Result; r == nil {
		enc.b = append(enc.b, 0)
	} else {
		enc.b = append(enc.b, 1)
		enc.result(r)
	}
	if enc.bins > sparseBudget(len(enc.b)-start) {
		return dst, fmt.Errorf("store: %d colour bins exceed the entry's decode cap", enc.bins)
	}
	return enc.b, nil
}

type encoder struct {
	b    []byte
	bins int // colour bins written, checked against sparseBudget
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) int(v int)        { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *encoder) float(f float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

// header writes a nil-or-length slice header.
func (e *encoder) header(isNil bool, n int) {
	if isNil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(n) + 1)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) ints(v []int) {
	e.header(v == nil, len(v))
	for _, x := range v {
		e.int(x)
	}
}

func (e *encoder) dense(v []float64) {
	e.header(v == nil, len(v))
	for _, x := range v {
		e.float(x)
	}
}

func (e *encoder) sparse(v []float64) {
	e.header(v == nil, len(v))
	if len(v) == 0 {
		return
	}
	e.bins += len(v)
	nnz := 0
	for _, x := range v {
		if math.Float64bits(x) != 0 {
			nnz++
		}
	}
	e.uvarint(uint64(nnz))
	next := 0
	for i, x := range v {
		if bits := math.Float64bits(x); bits != 0 {
			e.uvarint(uint64(i - next))
			e.b = binary.LittleEndian.AppendUint64(e.b, bits)
			next = i + 1
		}
	}
}

func (e *encoder) scenes(v []SavedScene) {
	e.header(v == nil, len(v))
	for i := range v {
		s := &v[i]
		e.int(s.Index)
		e.ints(s.Groups)
		e.int(s.RepGroup)
		e.int(s.Event)
	}
}

func (e *encoder) result(r *SavedResult) {
	e.int(r.Version)
	e.str(r.VideoName)
	e.float(r.FPS)
	e.int(r.TotalFrames)
	e.header(r.Shots == nil, len(r.Shots))
	for i := range r.Shots {
		s := &r.Shots[i]
		e.int(s.Index)
		e.int(s.Start)
		e.int(s.End)
		e.int(s.RepFrame)
		e.sparse(s.Color)
		e.dense(s.Texture)
	}
	e.header(r.Groups == nil, len(r.Groups))
	for i := range r.Groups {
		g := &r.Groups[i]
		e.int(g.Index)
		e.int(g.Kind)
		e.ints(g.Shots)
		e.ints(g.RepShots)
	}
	e.scenes(r.Scenes)
	e.scenes(r.Discarded)
	e.header(r.Clusters == nil, len(r.Clusters))
	for i := range r.Clusters {
		c := &r.Clusters[i]
		e.int(c.Index)
		e.ints(c.Scenes)
		e.int(c.RepGroup)
	}
	e.header(r.Events == nil, len(r.Events))
	keys := make([]int, 0, len(r.Events))
	for k := range r.Events {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		e.int(k)
		e.int(r.Events[k])
	}
}

// DecodeEntry decodes one AppendEntry encoding. Every read is bounds
// checked: truncated or malformed input returns an error, never a panic,
// and a length that cannot fit in the remaining bytes is rejected before
// anything is allocated for it. The result never aliases b.
func DecodeEntry(b []byte) (SavedLibraryEntry, error) {
	d := decoder{b: b, bins: sparseBudget(len(b))}
	if c := d.byte(); d.err == nil && c != entryCodec {
		d.fail("entry codec %d unsupported (want %d)", c, entryCodec)
	}
	var e SavedLibraryEntry
	e.Subcluster = d.str()
	switch d.byte() {
	case 0:
	case 1:
		e.Result = d.result()
	default:
		d.fail("bad result marker")
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return SavedLibraryEntry{}, d.err
	}
	return e, nil
}

// decoder reads an entry with a sticky error: the first failure empties
// the input, so every later read yields zero values and nil slices, and
// the caller checks err once at the end.
type decoder struct {
	b    []byte
	bins int // colour bins still allowed (sparseBudget)
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: decoding entry: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or oversized varint")
		return 0
	}
	if n > 1 && d.b[n-1] == 0 {
		d.fail("overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		d.fail("integer %d overflows int", x)
		return 0
	}
	return int(x)
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

// header reads a slice header: -1 for nil, else the element count, which
// must fit in the remaining bytes at minSize bytes per element.
func (d *decoder) header(minSize int) int {
	v := d.uvarint()
	if v == 0 {
		return -1
	}
	if n := v - 1; n > uint64(len(d.b)/minSize) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b))
		return -1
	}
	return int(v - 1)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds the %d bytes left", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) ints() []int {
	n := d.header(1)
	if n < 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.int()
	}
	return v
}

func (d *decoder) dense() []float64 {
	n := d.header(8)
	if n < 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.float()
	}
	return v
}

func (d *decoder) sparse() []float64 {
	v := d.uvarint()
	if v == 0 {
		return nil
	}
	if n := v - 1; n > uint64(d.bins) {
		d.fail("%d colour bins exceed the entry's decode cap", n)
		return nil
	}
	n := int(v - 1)
	if n == 0 {
		return []float64{}
	}
	nnz := d.uvarint()
	if nnz > uint64(n) || nnz > uint64(len(d.b)/9) {
		d.fail("%d nonzero bins do not fit a %d-bin histogram in %d bytes", nnz, n, len(d.b))
		return nil
	}
	d.bins -= n
	out := make([]float64, n)
	next := 0
	for ; nnz > 0; nnz-- {
		gap := d.uvarint()
		if d.err != nil || gap >= uint64(n-next) {
			d.fail("colour bin out of range")
			return nil
		}
		i := next + int(gap)
		if len(d.b) < 8 {
			d.fail("truncated colour bin")
			return nil
		}
		bits := binary.LittleEndian.Uint64(d.b)
		if bits == 0 {
			d.fail("explicit zero colour bin")
			return nil
		}
		out[i] = math.Float64frombits(bits)
		d.b = d.b[8:]
		next = i + 1
	}
	return out
}

func (d *decoder) scenes() []SavedScene {
	n := d.header(minSceneBytes)
	if n < 0 {
		return nil
	}
	v := make([]SavedScene, n)
	for i := range v {
		v[i] = SavedScene{Index: d.int(), Groups: d.ints(), RepGroup: d.int(), Event: d.int()}
	}
	return v
}

func (d *decoder) result() *SavedResult {
	r := &SavedResult{
		Version:     d.int(),
		VideoName:   d.str(),
		FPS:         d.float(),
		TotalFrames: d.int(),
	}
	if n := d.header(minShotBytes); n >= 0 {
		r.Shots = make([]SavedShot, n)
		for i := range r.Shots {
			r.Shots[i] = SavedShot{
				Index: d.int(), Start: d.int(), End: d.int(), RepFrame: d.int(),
				Color: d.sparse(), Texture: d.dense(),
			}
		}
	}
	if n := d.header(minGroupBytes); n >= 0 {
		r.Groups = make([]SavedGroup, n)
		for i := range r.Groups {
			r.Groups[i] = SavedGroup{Index: d.int(), Kind: d.int(), Shots: d.ints(), RepShots: d.ints()}
		}
	}
	r.Scenes = d.scenes()
	r.Discarded = d.scenes()
	if n := d.header(minClusterBytes); n >= 0 {
		r.Clusters = make([]SavedCluster, n)
		for i := range r.Clusters {
			r.Clusters[i] = SavedCluster{Index: d.int(), Scenes: d.ints(), RepGroup: d.int()}
		}
	}
	if n := d.header(minEventBytes); n >= 0 {
		r.Events = make(map[int]int, n)
		prev := 0
		for i := 0; i < n && d.err == nil; i++ {
			k, v := d.int(), d.int()
			if i > 0 && k <= prev {
				d.fail("event keys out of order")
			}
			r.Events[k] = v
			prev = k
		}
	}
	return r
}

// WriteLibrary writes entries to w as a binary snapshot (see AppendEntry),
// one entry at a time through a buffered writer.
func WriteLibrary(w io.Writer, entries []SavedLibraryEntry) error {
	bw := bufio.NewWriter(w)
	var hdr [binary.MaxVarintLen64]byte
	bw.WriteString(snapshotMagic)
	bw.Write(hdr[:binary.PutUvarint(hdr[:], FormatVersion)])
	var buf []byte
	for i := range entries {
		var err error
		if buf, err = AppendEntry(buf[:0], &entries[i]); err != nil {
			return err
		}
		bw.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(buf)))])
		bw.Write(buf)
	}
	bw.WriteByte(0) // bufio.Writer errors are sticky: Flush reports any
	return bw.Flush()
}

// ReadLibrary reads a whole snapshot written by WriteLibrary, or a JSON
// snapshot an earlier release wrote.
func ReadLibrary(r io.Reader) (*SavedLibrary, error) {
	lr, err := NewLibraryReader(r)
	if err != nil {
		return nil, err
	}
	lib := &SavedLibrary{Version: FormatVersion}
	for {
		e, err := lr.Next()
		if err == io.EOF {
			return lib, nil
		}
		if err != nil {
			return nil, err
		}
		lib.Videos = append(lib.Videos, e)
	}
}

// LibraryReader yields a snapshot's entries one at a time. A binary
// snapshot is read entry by entry through a bufio.Reader, so memory holds
// one encoded entry, not the file. A JSON snapshot (recognised by its
// first byte not being snapshotMagic's) is decoded whole, as before.
type LibraryReader struct {
	br   *bufio.Reader
	buf  bytes.Buffer
	json []SavedLibraryEntry // remaining entries of a JSON snapshot
	done bool
}

// NewLibraryReader reads and checks the snapshot header.
func NewLibraryReader(r io.Reader) (*LibraryReader, error) {
	lr := &LibraryReader{br: bufio.NewReader(r)}
	head, err := lr.br.Peek(len(snapshotMagic))
	if err != nil || string(head) != snapshotMagic {
		var lib SavedLibrary
		if err := json.NewDecoder(lr.br).Decode(&lib); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if lib.Version != FormatVersion {
			return nil, fmt.Errorf("store: library version %d unsupported (want %d)", lib.Version, FormatVersion)
		}
		lr.json = lib.Videos
		lr.br = nil
		return lr, nil
	}
	lr.br.Discard(len(snapshotMagic))
	v, err := binary.ReadUvarint(lr.br)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", unexpected(err))
	}
	if v != FormatVersion {
		return nil, fmt.Errorf("store: library version %d unsupported (want %d)", v, FormatVersion)
	}
	return lr, nil
}

// Next returns the next entry, or io.EOF after the last. A snapshot that
// ends before its terminator is an error, not a short library.
func (lr *LibraryReader) Next() (SavedLibraryEntry, error) {
	if lr.br == nil {
		if len(lr.json) == 0 {
			return SavedLibraryEntry{}, io.EOF
		}
		e := lr.json[0]
		lr.json = lr.json[1:]
		return e, nil
	}
	if lr.done {
		return SavedLibraryEntry{}, io.EOF
	}
	n, err := binary.ReadUvarint(lr.br)
	if err != nil {
		return SavedLibraryEntry{}, fmt.Errorf("store: reading snapshot: %w", unexpected(err))
	}
	if n == 0 {
		lr.done = true
		return SavedLibraryEntry{}, io.EOF
	}
	// CopyN grows the buffer as bytes arrive, so a corrupt length costs
	// at most what the file actually holds.
	lr.buf.Reset()
	if _, err := io.CopyN(&lr.buf, lr.br, int64(min(n, math.MaxInt64))); err != nil {
		return SavedLibraryEntry{}, fmt.Errorf("store: reading snapshot: %w", unexpected(err))
	}
	return DecodeEntry(lr.buf.Bytes())
}

// unexpected reports a clean EOF inside a snapshot as truncation.
func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
