// Package index implements the cluster-based hierarchical database index of
// §2 and §6.2: a tree derived from the concept hierarchy whose non-leaf
// nodes summarise their content with multiple centers (because high-level
// concepts mix several visual components, a single Gaussian cannot model
// them) and whose leaf nodes index shots with a hash table. Search descends
// only into relevant units and computes distances in reduced feature
// subspaces, reproducing the Tc ≪ Te total-cost comparison of Eqs. (24)–(25).
//
// Storage is flat and contiguous: entries are numbered at Build, all full
// features live in one row-major matrix, and every leaf precomputes one
// projection matrix over its rows. The search hot path runs on pooled
// per-call scratch (query projections, candidate lists, a seen-bitset keyed
// by entry ID, a bounded top-k max-heap), so steady-state SearchInto
// performs zero heap allocations.
package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"classminer/internal/mat"
	"classminer/internal/trace"
	"classminer/internal/vidmodel"
)

// Entry is one indexed shot.
type Entry struct {
	VideoName string
	Shot      *vidmodel.Shot
	// Path locates the entry in the concept hierarchy, e.g.
	// ["medical education", "medicine", "medicine/dialog"].
	Path []string
}

// Options tunes index construction. Zero values become defaults.
type Options struct {
	Centers    int // centers per non-leaf node (default 3)
	SelectDims int // variance-selected coordinates (default 48)
	PCADims    int // principal components per node (default 16)
	HashDims   int // leading reduced dims hashed at leaves (default 4)
	Beam       int // children explored per level during search (default 2)
	Seed       int64
}

func (o Options) withDefaults() Options {
	if o.Centers <= 0 {
		o.Centers = 3
	}
	if o.SelectDims <= 0 {
		o.SelectDims = 48
	}
	if o.PCADims <= 0 {
		o.PCADims = 16
	}
	if o.HashDims <= 0 {
		o.HashDims = 4
	}
	if o.HashDims > maxHashDims {
		o.HashDims = maxHashDims
	}
	if o.Beam <= 0 {
		o.Beam = 2
	}
	return o
}

// Stats counts the work a search performed, the quantities of Eqs. (24)
// and (25): distance computations per level, the float dimensions touched,
// and the size of the ranked candidate set.
type Stats struct {
	DistanceOps int // total distance computations
	FloatOps    int // Σ dims over all distance computations
	Candidates  int // entries ranked (the M_o log M_o term)
}

// Result is one ranked search hit.
type Result struct {
	Entry *Entry
	Dist  float64
}

// Index is the built hierarchical index. A built Index is immutable with
// respect to searches; Insert and Remove extend it copy-on-write (see
// incremental.go), returning a new Index that shares all unchanged
// structure with its predecessor.
type Index struct {
	opts  Options
	root  *node
	all   []*Entry
	feats *mat.Dense // row i = full feature vector of entry i (build-time rows)

	// Incremental overlay state. baseRows is feats.R at the last full fit;
	// entries inserted since then keep their full features in extraFeats
	// (row id-baseRows, feats.C wide) and are counted by inserted. removed
	// is a bitset over global entry IDs masking deleted entries (nil when
	// none); removedCount tallies its set bits. The overlay is bounded in
	// practice by the caller's staleness budget — once
	// (inserted+removed)/baseRows exceeds it, a full refit is warranted.
	baseRows     int
	extraFeats   []float64
	inserted     int
	removed      []uint64
	removedCount int

	maxDim    int // widest reducer output across nodes (scratch sizing)
	seenWords int // words in the per-search seen-bitset
	// scratch is shared by every index in a copy-on-write chain (clones
	// copy the pointer), so pooled buffers survive Insert/Remove and
	// steady-state searches stay allocation-free; SearchInto grows a pooled
	// bitset when inserts have outgrown it.
	scratch *sync.Pool
}

type node struct {
	name     string
	children map[string]*node
	order    []string // deterministic child order
	// Non-leaf routing state.
	reducer *Reducer
	centers map[string][][]float64 // child name -> centers in this node's space
	// Leaf state, flat storage: ids are global entry IDs in insertion
	// order, proj row r is the reduced feature of entry ids[r], and the
	// hash maps quantised cells to leaf-local rows.
	ids  []int32
	proj *mat.Dense
	hash map[cellKey][]int32
	cell []float64 // per-dim hash cell width
	// Incremental overlay: entries inserted after the fit. extraIDs extends
	// ids (leaf row len(ids)+i refers to extraIDs[i]) and extraProj holds
	// their reduced features (reducer.Dim() wide rows). Extras are not
	// hashed — they are unconditionally candidates at this leaf, which is
	// exact (never misses) and stays cheap because the staleness budget
	// bounds how many exist before a refit folds them in.
	extraIDs  []int32
	extraProj []float64
}

// rows is the leaf's total candidate row count, base plus overlay.
func (n *node) rows() int { return len(n.ids) + len(n.extraIDs) }

// idAt maps a leaf row to its global entry ID across both regions.
func (n *node) idAt(row int32) int32 {
	if int(row) < len(n.ids) {
		return n.ids[row]
	}
	return n.extraIDs[int(row)-len(n.ids)]
}

// projRow returns the leaf-space reduced feature of a leaf row.
func (n *node) projRow(row int32, dim int) []float64 {
	if int(row) < len(n.ids) {
		return n.proj.Row(int(row))
	}
	r := int(row) - len(n.ids)
	return n.extraProj[r*dim : (r+1)*dim]
}

// cellKey is a fixed-width quantised signature of the leading reduced
// dimensions; unused dimensions stay zero.
type cellKey [maxHashDims]int32

const maxHashDims = 4

// Build constructs the index from entries. Every entry must carry a
// non-empty path. The full feature matrix is extracted once here; callers
// that already hold one (e.g. a Library that reuses it across rebuilds)
// should use BuildMatrix instead.
func Build(entries []*Entry, opts Options) (*Index, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: no entries")
	}
	d := len(entries[0].Shot.Color) + len(entries[0].Shot.Texture)
	feats := &mat.Dense{R: len(entries), C: d, Data: make([]float64, 0, len(entries)*d)}
	for i, e := range entries {
		if len(e.Shot.Color)+len(e.Shot.Texture) != d {
			return nil, fmt.Errorf("index: entry %d has %d feature dims, want %d",
				i, len(e.Shot.Color)+len(e.Shot.Texture), d)
		}
		feats.Data = append(feats.Data, e.Shot.Color...)
		feats.Data = append(feats.Data, e.Shot.Texture...)
	}
	return BuildMatrix(entries, feats, opts)
}

// BuildMatrix constructs the index from entries whose full features are
// already laid out as rows of feats (row i belongs to entries[i]). Both
// the entry slice and the matrix are retained by the index and must never
// be mutated afterwards: a built Index is immutable, and every concurrent
// search reads entry pointers and feature rows straight out of them. A
// caller that later shrinks its own entry set (classminer's
// DeleteVideo/ReplaceResult) must therefore rebuild into fresh backing
// arrays and hand the next BuildMatrix the new ones — the old index keeps
// serving its snapshot untouched until it is swapped out.
func BuildMatrix(entries []*Entry, feats *mat.Dense, opts Options) (*Index, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: no entries")
	}
	if len(entries) > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d entries exceed the int32 ID space", len(entries))
	}
	if feats == nil || feats.R != len(entries) {
		return nil, fmt.Errorf("index: feature matrix must have one row per entry")
	}
	opts = opts.withDefaults()
	ix := &Index{opts: opts, root: newNode("database"), all: entries, feats: feats}
	for i, e := range entries {
		if len(e.Path) == 0 {
			return nil, fmt.Errorf("index: entry %d has empty path", i)
		}
		cur := ix.root
		for _, name := range e.Path {
			next, ok := cur.children[name]
			if !ok {
				next = newNode(name)
				cur.children[name] = next
				cur.order = append(cur.order, name)
			}
			cur = next
		}
		cur.ids = append(cur.ids, int32(i))
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	// Every node's entry-ID list is computed exactly once, bottom-up, and
	// handed to fit — nothing re-walks the tree per level.
	idsOf := map[*node][]int32{}
	collectIDs(ix.root, idsOf)
	if err := ix.fit(ix.root, idsOf, rng); err != nil {
		return nil, err
	}
	ix.baseRows = feats.R
	ix.maxDim = maxReducerDim(ix.root)
	ix.seenWords = (len(entries) + 63) / 64
	pool := &sync.Pool{}
	seenWords, maxDim := ix.seenWords, ix.maxDim
	pool.New = func() any { return newScratch(maxDim, seenWords) }
	ix.scratch = pool
	return ix, nil
}

func newNode(name string) *node {
	return &node{name: name, children: map[string]*node{}}
}

// collectIDs fills out with every node's entry-ID list (leaf insertion
// order, children concatenated in deterministic order) in one post-order
// pass.
func collectIDs(n *node, out map[*node][]int32) []int32 {
	if len(n.children) == 0 {
		out[n] = n.ids
		return n.ids
	}
	var ids []int32
	for _, name := range n.order {
		ids = append(ids, collectIDs(n.children[name], out)...)
	}
	out[n] = ids
	return ids
}

func maxReducerDim(n *node) int {
	d := 0
	if n.reducer != nil {
		d = n.reducer.Dim()
	}
	for _, c := range n.children {
		if cd := maxReducerDim(c); cd > d {
			d = cd
		}
	}
	return d
}

// fit trains each node: reducers and per-child centers at non-leaf nodes,
// the hash table at leaves. The node's entry list arrives precomputed.
func (ix *Index) fit(n *node, idsOf map[*node][]int32, rng *rand.Rand) error {
	ids := idsOf[n]
	if len(ids) == 0 {
		return fmt.Errorf("index: node %q has no entries", n.name)
	}
	reducer, err := FitReducer(ix.feats.RowsAt(ids), ix.opts.SelectDims, ix.opts.PCADims)
	if err != nil {
		return fmt.Errorf("index: node %q: %w", n.name, err)
	}
	n.reducer = reducer

	if len(n.children) == 0 {
		return ix.fitLeaf(n)
	}
	n.centers = map[string][][]float64{}
	for _, name := range n.order {
		child := n.children[name]
		childIDs := idsOf[child]
		pts := mat.NewDense(len(childIDs), reducer.Dim())
		for i, id := range childIDs {
			reducer.ProjectInto(pts.Row(i), ix.feats.Row(int(id)))
		}
		k := ix.opts.Centers
		if k > pts.R {
			k = pts.R
		}
		km, err := mat.KMeans(pts.Rows(), k, rng, 40)
		if err != nil {
			return fmt.Errorf("index: centers for %q: %w", name, err)
		}
		n.centers[name] = km.Centers
		if err := ix.fit(child, idsOf, rng); err != nil {
			return err
		}
	}
	return nil
}

// fitLeaf projects the leaf's entries into one contiguous matrix and builds
// the hash table over quantised reduced signatures.
func (ix *Index) fitLeaf(n *node) error {
	dims := n.reducer.Dim()
	h := ix.opts.HashDims
	if h > dims {
		h = dims
	}
	n.proj = mat.NewDense(len(n.ids), dims)
	for r, id := range n.ids {
		n.reducer.ProjectInto(n.proj.Row(r), ix.feats.Row(int(id)))
	}
	// Cell width per hashed dim: half the standard deviation keeps bucket
	// occupancy moderate without scattering near-identical shots.
	n.cell = make([]float64, h)
	for d := 0; d < h; d++ {
		var mean, ss float64
		for r := 0; r < n.proj.R; r++ {
			mean += n.proj.Data[r*dims+d]
		}
		mean /= float64(n.proj.R)
		for r := 0; r < n.proj.R; r++ {
			dv := n.proj.Data[r*dims+d] - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n.proj.R))
		if sd < 1e-9 {
			sd = 1e-9
		}
		n.cell[d] = sd / 2
	}
	n.hash = map[cellKey][]int32{}
	for r := 0; r < n.proj.R; r++ {
		key := n.hashKey(n.proj.Row(r))
		n.hash[key] = append(n.hash[key], int32(r))
	}
	return nil
}

func (n *node) hashKey(p []float64) cellKey {
	var k cellKey
	for d := range n.cell {
		k[d] = int32(math.Floor(p[d] / n.cell[d]))
	}
	return k
}

// candRef locates one candidate: its leaf, its leaf-local projection row,
// and its global entry ID.
type candRef struct {
	leaf *node
	row  int32
	id   int32
}

// heapItem is one bounded top-k entry ordered by (sq, id); id breaks ties
// deterministically.
type heapItem struct {
	sq float64
	id int32
}

// searchScratch is the per-call mutable state of one search, recycled
// through Index.scratch so steady-state searches allocate nothing.
type searchScratch struct {
	qproj  []float64 // query projection (maxDim)
	eproj  []float64 // on-demand sibling-entry projection (maxDim)
	leaves []*node
	scored []scoredChild
	cands  []candRef
	heap   []heapItem
	seen   []uint64   // bitset over global entry IDs
	ring   [3][]int32 // leaf rows grouped by Chebyshev radius 0..2
}

type scoredChild struct {
	child *node
	dist  float64
}

func newScratch(maxDim, seenWords int) *searchScratch {
	return &searchScratch{
		qproj: make([]float64, maxDim),
		eproj: make([]float64, maxDim),
		seen:  make([]uint64, seenWords),
	}
}

// addCand records a candidate once; the seen-bitset dedupes across leaves
// and hash cells. removed, when non-nil, is the index's deletion mask —
// masked entries never become candidates.
func (sc *searchScratch) addCand(leaf *node, row int32, removed []uint64) {
	id := leaf.idAt(row)
	w, b := id>>6, uint(id&63)
	// The mask was sized when the last Remove ran; entries inserted since
	// lie past its end and are never masked.
	if int(w) < len(removed) && removed[w]&(1<<b) != 0 {
		return
	}
	if sc.seen[w]&(1<<b) != 0 {
		return
	}
	sc.seen[w] |= 1 << b
	sc.cands = append(sc.cands, candRef{leaf: leaf, row: row, id: id})
}

// Search finds the k nearest indexed shots to the query feature (a 266-dim
// Shot.Feature vector), descending only through the most relevant database
// units. It returns the ranked results and the §6.2 cost statistics.
//
// Search is safe for concurrent use by any number of goroutines: a built
// Index is immutable, and all mutable search state — the Stats accumulator
// included — lives in pooled per-call scratch, never shared. The serving
// layer relies on this to answer queries in parallel against one index
// snapshot. Search allocates only the returned result slice; reuse one via
// SearchInto to reach zero allocations per query.
func (ix *Index) Search(query []float64, k int) ([]Result, Stats) {
	return ix.SearchInto(nil, query, k)
}

// SearchInto is Search writing its results into dst (grown only when its
// capacity is insufficient, so a reused buffer makes steady-state searches
// allocation-free). The returned slice aliases dst.
func (ix *Index) SearchInto(dst []Result, query []float64, k int) ([]Result, Stats) {
	return ix.SearchIntoSpans(dst, query, k, nil)
}

// SearchIntoSpans is SearchInto with per-stage tracing: when sp is a live
// span, the hierarchical descent ("project" — the per-level subspace
// projections), candidate gathering ("scan") and ranking ("rank") each
// record a child span. A nil sp (the untraced and unsampled paths) costs
// nothing — spans come from the trace's pooled arena, so the zero-alloc
// search contract holds either way.
func (ix *Index) SearchIntoSpans(dst []Result, query []float64, k int, sp *trace.Span) ([]Result, Stats) {
	var stats Stats
	if k <= 0 {
		k = 1
	}
	sc := ix.scratch.Get().(*searchScratch)
	if len(sc.seen) < ix.seenWords {
		// The pool is shared along the copy-on-write chain; inserts since
		// this scratch was created may have outgrown its bitset.
		sc.seen = make([]uint64, ix.seenWords)
	}
	stage := sp.Start("project")
	ix.descend(ix.root, query, sc, &stats)
	stage.End()
	// leafCandidates falls back to the whole leaf when the hash is
	// exhausted, so sc.cands misses a live entry of a visited leaf only
	// when k is already satisfied nearer. It can be empty outright when
	// removals masked every entry of every visited leaf — rank then
	// returns no hits.
	stage = sp.Start("scan")
	for _, leaf := range sc.leaves {
		ix.leafCandidates(leaf, query, k, sc)
	}
	stage.SetInt("leaves", int64(len(sc.leaves)))
	stage.SetInt("candidates", int64(len(sc.cands)))
	stage.End()
	stage = sp.Start("rank")
	dst = ix.rank(dst, sc.leaves[0], query, k, sc, &stats)
	stage.End()
	for _, c := range sc.cands {
		sc.seen[c.id>>6] = 0
	}
	sc.leaves = sc.leaves[:0]
	sc.cands = sc.cands[:0]
	ix.scratch.Put(sc)
	return dst, stats
}

// SearchBatch answers many queries concurrently, one goroutine per core,
// each pulling its own scratch from the pool. results[i] and stats[i]
// correspond to queries[i].
func (ix *Index) SearchBatch(queries [][]float64, k int) ([][]Result, []Stats) {
	results := make([][]Result, len(queries))
	stats := make([]Stats, len(queries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i, q := range queries {
			results[i], stats[i] = ix.Search(q, k)
		}
		return results, stats
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				results[i], stats[i] = ix.Search(queries[i], k)
			}
		}()
	}
	wg.Wait()
	return results, stats
}

// descend routes the query down the tree, keeping the Beam best children
// at each level by distance to their centers. Reached leaves are appended
// to sc.leaves.
func (ix *Index) descend(n *node, query []float64, sc *searchScratch, stats *Stats) {
	if len(n.children) == 0 {
		sc.leaves = append(sc.leaves, n)
		return
	}
	p := n.reducer.ProjectInto(sc.qproj[:n.reducer.Dim()], query)
	start := len(sc.scored)
	for _, name := range n.order {
		best := math.Inf(1)
		for _, c := range n.centers[name] {
			stats.DistanceOps++
			stats.FloatOps += len(c)
			if d := mat.SqDist(p, c); d < best {
				best = d
			}
		}
		sc.scored = append(sc.scored, scoredChild{child: n.children[name], dist: best})
	}
	// Insertion sort: child counts are small, and avoiding sort.Slice keeps
	// the path allocation-free. cs stays readable even if a nested descend
	// grows sc.scored into a new backing array.
	cs := sc.scored[start:]
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].dist < cs[j-1].dist; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	beam := ix.opts.Beam
	if beam > len(cs) {
		beam = len(cs)
	}
	for i := 0; i < beam; i++ {
		ix.descend(cs[i].child, query, sc, stats)
	}
	sc.scored = sc.scored[:start]
}

// leafCandidates looks up the query's hash cell and expands outward shell
// by shell until at least k candidates are found (or the ring is
// exhausted, in which case the whole leaf is the candidate set). Entries
// inserted after the fit are not hashed, so they join the candidate set
// unconditionally first — an inserted entry must be findable immediately,
// and the shell early-exits below must not preempt it.
func (ix *Index) leafCandidates(leaf *node, query []float64, k int, sc *searchScratch) {
	for r := len(leaf.ids); r < leaf.rows(); r++ {
		sc.addCand(leaf, int32(r), ix.removed)
	}
	p := leaf.reducer.ProjectInto(sc.qproj[:leaf.reducer.Dim()], query)
	h := len(leaf.cell)
	var base [maxHashDims]int
	for d := 0; d < h; d++ {
		base[d] = int(math.Floor(p[d] / leaf.cell[d]))
	}
	start := len(sc.cands)
	// Two equivalent ways to gather the radius-0..2 cells: probe every
	// shell cell in the hash, or scan the occupied cells once and bucket
	// them by radius. Scanning wins whenever the leaf has fewer occupied
	// cells than the ~1+3^h+5^h probes enumeration would issue.
	probes := 1 + pow3[h] + pow5[h]
	if len(leaf.hash) < probes {
		for key, rows := range leaf.hash {
			r := chebyshev(key, base[:h])
			if r <= 2 {
				sc.ring[r] = append(sc.ring[r], rows...)
			}
		}
		done := false
		for radius := 0; radius <= 2; radius++ {
			if !done {
				for _, row := range sc.ring[radius] {
					sc.addCand(leaf, row, ix.removed)
				}
				if len(sc.cands)-start >= k {
					done = true
				}
			}
			sc.ring[radius] = sc.ring[radius][:0]
		}
		if done {
			return
		}
	} else {
		for radius := 0; radius <= 2; radius++ {
			ix.collectShell(leaf, base[:h], radius, sc)
			if len(sc.cands)-start >= k {
				return
			}
		}
	}
	// Hash exhausted: fall back to the whole leaf (still only the relevant
	// scene node, never the full database). Rows already collected above
	// are deduped by the seen-bitset.
	for r := 0; r < len(leaf.ids); r++ {
		sc.addCand(leaf, int32(r), ix.removed)
	}
}

// pow3 and pow5 tabulate 3^h and 5^h for the supported hash widths.
var (
	pow3 = [maxHashDims + 1]int{1, 3, 9, 27, 81}
	pow5 = [maxHashDims + 1]int{1, 5, 25, 125, 625}
)

// chebyshev returns the L∞ distance between a cell key and the query's base
// cell over the first len(base) dimensions.
func chebyshev(key cellKey, base []int) int {
	r := 0
	for d, b := range base {
		dv := int(key[d]) - b
		if dv < 0 {
			dv = -dv
		}
		if dv > r {
			r = dv
		}
	}
	return r
}

// collectShell gathers entries from exactly the cells at Chebyshev radius r
// around base (the shell max|offset| == r, not the whole ball): an odometer
// enumerates the first h-1 offsets, and the last dimension ranges fully
// only when an earlier dimension already sits at ±r — otherwise it is
// pinned to ±r.
func (ix *Index) collectShell(leaf *node, base []int, r int, sc *searchScratch) {
	h := len(base)
	if h == 0 {
		return
	}
	var key cellKey
	if r == 0 {
		for d, b := range base {
			key[d] = int32(b)
		}
		for _, row := range leaf.hash[key] {
			sc.addCand(leaf, row, ix.removed)
		}
		return
	}
	var offs [maxHashDims]int
	for d := 0; d < h-1; d++ {
		offs[d] = -r
	}
	last := h - 1
	for {
		onShell := false
		for d := 0; d < last; d++ {
			key[d] = int32(base[d] + offs[d])
			if offs[d] == -r || offs[d] == r {
				onShell = true
			}
		}
		if onShell {
			for o := -r; o <= r; o++ {
				key[last] = int32(base[last] + o)
				for _, row := range leaf.hash[key] {
					sc.addCand(leaf, row, ix.removed)
				}
			}
		} else {
			key[last] = int32(base[last] - r)
			for _, row := range leaf.hash[key] {
				sc.addCand(leaf, row, ix.removed)
			}
			key[last] = int32(base[last] + r)
			for _, row := range leaf.hash[key] {
				sc.addCand(leaf, row, ix.removed)
			}
		}
		d := last - 1
		for ; d >= 0; d-- {
			offs[d]++
			if offs[d] <= r {
				break
			}
			offs[d] = -r
		}
		if d < 0 {
			return
		}
	}
}

// rank scores every candidate in the primary leaf's reduced space (the To
// term: even ranking uses discriminating features only) through a bounded
// top-k max-heap with early-abandoning distances. Candidates from the
// primary leaf use its precomputed projection rows; candidates routed in
// from a sibling leaf (beam > 1) are projected on demand into scratch.
func (ix *Index) rank(dst []Result, primary *node, query []float64, k int, sc *searchScratch, stats *Stats) []Result {
	dim := primary.reducer.Dim()
	p := primary.reducer.ProjectInto(sc.qproj[:dim], query)
	heap := sc.heap[:0]
	for _, c := range sc.cands {
		stats.DistanceOps++
		stats.FloatOps += dim
		var ep []float64
		if c.leaf == primary {
			ep = primary.projRow(c.row, dim)
		} else {
			ep = primary.reducer.ProjectInto(sc.eproj[:dim], ix.featRow(c.id))
		}
		if len(heap) < k {
			heap = append(heap, heapItem{sq: mat.SqDistBounded(p, ep, math.Inf(1)), id: c.id})
			if len(heap) == k {
				heapifyItems(heap)
			}
		} else {
			bound := heap[0].sq
			sq := mat.SqDistBounded(p, ep, bound)
			if sq < bound || (sq == bound && c.id < heap[0].id) {
				heap[0] = heapItem{sq: sq, id: c.id}
				siftDown(heap, 0)
			}
		}
	}
	stats.Candidates = len(sc.cands)
	sortItems(heap)
	if cap(dst) < len(heap) {
		dst = make([]Result, len(heap))
	} else {
		dst = dst[:len(heap)]
	}
	for i, it := range heap {
		dst[i] = Result{Entry: ix.all[it.id], Dist: math.Sqrt(it.sq)}
	}
	sc.heap = heap[:0]
	return dst
}

// itemGreater orders heap items by (sq, id) so the max-heap root is the
// current worst kept candidate and ties resolve deterministically.
func itemGreater(a, b heapItem) bool {
	return a.sq > b.sq || (a.sq == b.sq && a.id > b.id)
}

func heapifyItems(h []heapItem) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown(h []heapItem, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && itemGreater(h[r], h[l]) {
			big = r
		}
		if !itemGreater(h[big], h[i]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// sortItems orders items ascending by (sq, id) via in-place heapsort — no
// comparator closures, no allocations.
func sortItems(h []heapItem) {
	heapifyItems(h)
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
}

// shotSqDistBounded is the full-dimension squared distance between a query
// and a shot's (colour ++ texture) feature, computed without materialising
// the concatenated vector and abandoning once the sum exceeds bound.
func shotSqDistBounded(s *vidmodel.Shot, query []float64, bound float64) float64 {
	nc := len(s.Color)
	if len(query) != nc+len(s.Texture) {
		panic(mat.ErrDimension)
	}
	sum := mat.SqDistBounded(query[:nc], s.Color, bound)
	if sum > bound {
		return sum
	}
	for i, v := range s.Texture {
		d := query[nc+i] - v
		sum += d * d
	}
	return sum
}

// flatShardMin is the smallest per-goroutine chunk worth spawning for; it
// also gates whether FlatSearch shards at all.
const flatShardMin = 256

// FlatSearch is the unindexed baseline of Eq. (24): every entry in the
// database is compared with the query in the full feature space. k <= 0
// ranks the whole database. Large databases are scanned in parallel
// (goroutine per chunk, each keeping a local top-k, merged at the end);
// results are deterministic regardless of sharding because ranking uses
// the (distance, entry position) total order.
func FlatSearch(entries []*Entry, query []float64, k int) ([]Result, Stats) {
	var stats Stats
	n := len(entries)
	for _, e := range entries {
		stats.DistanceOps++
		stats.FloatOps += len(e.Shot.Color) + len(e.Shot.Texture)
	}
	stats.Candidates = n
	if n == 0 {
		return nil, stats
	}
	if k <= 0 || k > n {
		k = n
	}
	workers := runtime.GOMAXPROCS(0)
	if max := n / flatShardMin; workers > max {
		workers = max
	}
	var top []heapItem
	if workers <= 1 {
		top = flatScanTopK(entries, 0, query, k)
		sortItems(top)
	} else {
		shards := make([][]heapItem, workers)
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				shards[w] = flatScanTopK(entries[lo:hi], lo, query, k)
			}(w, lo, hi)
		}
		wg.Wait()
		for _, s := range shards {
			top = append(top, s...)
		}
		sortItems(top)
		if len(top) > k {
			top = top[:k]
		}
	}
	results := make([]Result, len(top))
	for i, it := range top {
		results[i] = Result{Entry: entries[it.id], Dist: math.Sqrt(it.sq)}
	}
	return results, stats
}

// flatScanTopK scans one chunk keeping a bounded top-k; off converts chunk
// positions back to database positions for deterministic tie-breaking.
func flatScanTopK(entries []*Entry, off int, query []float64, k int) []heapItem {
	heap := make([]heapItem, 0, k)
	for i, e := range entries {
		id := int32(off + i)
		if len(heap) < k {
			heap = append(heap, heapItem{sq: shotSqDistBounded(e.Shot, query, math.Inf(1)), id: id})
			if len(heap) == k {
				heapifyItems(heap)
			}
			continue
		}
		bound := heap[0].sq
		sq := shotSqDistBounded(e.Shot, query, bound)
		if sq < bound || (sq == bound && id < heap[0].id) {
			heap[0] = heapItem{sq: sq, id: id}
			siftDown(heap, 0)
		}
	}
	return heap
}

// featRow returns the full feature vector of a global entry ID, whichever
// region it lives in.
func (ix *Index) featRow(id int32) []float64 {
	if int(id) < ix.baseRows {
		return ix.feats.Row(int(id))
	}
	r := int(id) - ix.baseRows
	return ix.extraFeats[r*ix.feats.C : (r+1)*ix.feats.C]
}

// Size returns the number of live indexed entries (inserted entries count,
// removed entries do not).
func (ix *Index) Size() int { return len(ix.all) - ix.removedCount }

// Leaves returns the leaf concept names, in deterministic order.
func (ix *Index) Leaves() []string {
	var out []string
	var walk func(n *node)
	walk = func(n *node) {
		if len(n.children) == 0 {
			out = append(out, n.name)
			return
		}
		for _, name := range n.order {
			walk(n.children[name])
		}
	}
	walk(ix.root)
	return out
}
