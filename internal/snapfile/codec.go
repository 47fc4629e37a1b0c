package snapfile

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/part"
)

// Block tag bases. Tags are redundancy against encoder/decoder order
// drift: every block records its tag, and the reader rejects a mismatch
// before touching the body.
const (
	tagLabels   = 0x0e0 // shared label table
	tagGPerm    = 0x0f0 // retired: locality permutation of G
	tagG        = 0x100
	tagReachC   = 0x120 // +1, the member rows, is retired
	tagReachGr  = 0x140
	tagReachIdx = 0x160 // retired: 2-hop index over the reach quotient
	tagPatC     = 0x180 // +1, the member rows, and +2, empty cyclic flags, are retired
	tagPatGr    = 0x1a0 // retired: the pattern quotient, derived on load
	tagPatIdx   = 0x1c0 // retired: 2-hop index over the pattern quotient
	tagMeta     = 0x200 // sharded: K, ShardOf, NodeLabel, CrossOut
	tagSummary  = 0x300
	tagStitched = 0x320
	tagShard0   = 0x1000 // shard s uses tagShard0 + s*tagShardStr
	tagShardStr = 0x100
)

// retired reports whether tag names a block older encoders wrote and no
// reader needs: G's locality permutation, the reach and pattern member
// rows, the pattern quotient (its CSR, base to base+6) and its cyclic flags
// (always empty), the 2-hop indexes (a presence flag and four label
// structures, base to base+4) and the predecessor side of every CSR
// (offsets and rows, base+5 and base+6).
// The reader steps over such a block wherever it appears, so files that
// carry them load as ones that do not. A shard's blocks sit at the
// monolithic tags' offsets from tagG.
func retired(tag uint32) bool {
	if tag >= tagShard0 {
		tag = tagG + (tag-tagShard0)%tagShardStr
	}
	switch tag {
	case tagGPerm, tagGPerm + 1, tagReachC + 1, tagPatC + 1, tagPatC + 2:
		return true
	}
	switch {
	case tag >= tagReachIdx && tag <= tagReachIdx+4, tag >= tagPatIdx && tag <= tagPatIdx+4,
		tag >= tagPatGr && tag <= tagPatGr+6:
		return true
	}
	for _, base := range [...]uint32{tagG, tagReachGr, tagSummary, tagStitched} {
		if tag == base+5 || tag == base+6 {
			return true
		}
	}
	return false
}

// StoreParts is the decoded state of one monolithic Store snapshot: what
// recovery reads. That is the frozen CSR of G, the reachability quotient
// with its node mapping and cyclic flags, and the pattern quotient with its
// node mapping and member index (Expand reads the members). Of the pattern
// view only the mapping is written: the decode derives the quotient and the
// members from it and G. The arrays are the decode's own; everything is
// immutable after decode.
type StoreParts struct {
	// Epoch is the snapshot's batch epoch.
	Epoch uint64
	// Labels is the reconstructed shared label table of G.
	Labels *graph.Labels
	// G is the frozen original graph.
	G *graph.CSR
	// ReachGr is the frozen reachability quotient R(G).
	ReachGr *graph.CSR
	// ReachClassOf maps every node of G to its reach class.
	ReachClassOf []graph.Node
	// ReachCyclic flags classes containing a cyclic SCC.
	ReachCyclic []bool
	// PatternGr is the frozen bisimulation quotient. It is not written: it
	// is derived on decode, and the encoder ignores it.
	PatternGr *graph.CSR
	// PatternBlockOf maps every node of G to its bisimulation block.
	PatternBlockOf []graph.Node
	// PatternMembers lists each block's member nodes, ascending. It is not
	// written: the decoder groups PatternBlockOf, and the encoder ignores it.
	PatternMembers [][]graph.Node
}

// EncodeStore serializes a monolithic snapshot to its file image.
func EncodeStore(p *StoreParts) []byte { return encodeStore(p).encode() }

// WriteStore atomically persists a monolithic snapshot to path through
// faultfs.ReplaceFile.
func WriteStore(path string, p *StoreParts) error {
	return WriteStoreFS(faultfs.Disk, path, p)
}

// WriteStoreFS is WriteStore over an explicit filesystem.
func WriteStoreFS(fsys faultfs.FS, path string, p *StoreParts) error {
	return faultfs.ReplaceFile(faultfs.Or(fsys), path, EncodeStore(p))
}

func encodeStore(p *StoreParts) *writer {
	w := newWriter(KindStore, p.Epoch, nil)
	shared := p.G.Labels()
	w.strings(tagLabels, shared.Names())
	putCSR(w, tagG, p.G, shared)
	putReach(w, tagReachC, p.ReachClassOf, p.ReachCyclic)
	putCSR(w, tagReachGr, p.ReachGr, shared)
	w.int32s(tagPatC, p.PatternBlockOf)
	return w
}

// DecodeStore decodes and validates a monolithic snapshot image. Nothing
// returned aliases data.
func DecodeStore(data []byte) (*StoreParts, error) {
	p, views, err := DecodeStoreGraph(data)
	if err != nil {
		return nil, err
	}
	if err := views(); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeStoreGraph decodes a monolithic snapshot image as far as G: the
// parts it returns hold the epoch, the labels and G. views decodes and
// validates the rest — both views — into the same parts; a caller that
// builds the views from G anyway (a recovery with a WAL tail) skips it.
// The image's checksum covers all of it either way. Nothing returned
// aliases data.
func DecodeStoreGraph(data []byte) (p *StoreParts, views func() error, err error) {
	r, err := open(data)
	if err != nil {
		return nil, nil, err
	}
	if r.kind != KindStore {
		return nil, nil, fmt.Errorf("%w: kind %v, want %v", ErrFormat, r.kind, KindStore)
	}
	p = &StoreParts{Epoch: r.epoch}
	names, err := r.strings(tagLabels)
	if err != nil {
		return nil, nil, err
	}
	if p.Labels, err = graph.LabelsFromNames(names); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if p.G, err = readCSR(r, tagG, p.Labels); err != nil {
		return nil, nil, err
	}
	return p, func() error { return readViews(r, p) }, nil
}

// readViews decodes the reach and pattern views that follow G in r into p.
func readViews(r *reader, p *StoreParts) (err error) {
	n := p.G.NumNodes()
	if p.ReachClassOf, p.ReachCyclic, err = readReach(r, tagReachC); err != nil {
		return err
	}
	if p.ReachGr, err = readCSR(r, tagReachGr, p.Labels); err != nil {
		return err
	}
	if err = validateReach("reach", n, p.ReachGr.NumNodes(), p.ReachClassOf, p.ReachCyclic); err != nil {
		return err
	}
	if p.PatternBlockOf, err = r.int32s(tagPatC); err != nil {
		return err
	}
	if err = r.end(); err != nil {
		return err
	}
	return derivePattern(p)
}

// derivePattern makes the pattern quotient and members of p from G and the
// block map, as a view is made anywhere (incbisim.Build): the blocks number
// max(PatternBlockOf)+1, and each must be non-empty and single-labelled.
func derivePattern(p *StoreParts) error {
	n := p.G.NumNodes()
	if err := validateMap("pattern", n, n, p.PatternBlockOf); err != nil {
		return err
	}
	blocks := 0
	for _, b := range p.PatternBlockOf {
		blocks = max(blocks, int(b)+1)
	}
	v, err := incbisim.Build(p.G, p.PatternBlockOf, blocks, false)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	p.PatternGr, p.PatternMembers = v.Gr, v.Compressed.Members
	return nil
}

// LoadStore reads and decodes a monolithic snapshot file.
func LoadStore(path string) (*StoreParts, error) {
	return LoadStoreFS(faultfs.Disk, path)
}

// LoadStoreFS is LoadStore over an explicit filesystem.
func LoadStoreFS(fsys faultfs.FS, path string) (*StoreParts, error) {
	data, err := faultfs.Or(fsys).ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeStore(data)
}

// ShardParts is one shard's slice of a sharded snapshot.
type ShardParts struct {
	// G is the shard's frozen local subgraph (local node ids).
	G *graph.CSR
	// ReachGr is the shard's frozen local reachability quotient.
	ReachGr *graph.CSR
	// ReachClassOf maps local nodes to local reach classes.
	ReachClassOf []graph.Node
	// ReachCyclic flags cyclic local classes.
	ReachCyclic []bool
}

// ShardedParts is the complete decoded state of one ShardedStore snapshot:
// the static partition, the evolving cross-shard adjacency, the per-shard
// epoch vector, and the epoch's boundary summary and stitched quotient.
type ShardedParts struct {
	// Epoch is the snapshot's batch epoch.
	Epoch uint64
	// K is the shard count.
	K int
	// Labels is the reconstructed shared label table.
	Labels *graph.Labels
	// ShardOf maps every global node to its shard.
	ShardOf []int32
	// NodeLabel is the static label of every global node.
	NodeLabel []graph.Label
	// CrossOut holds the sorted cross-shard successors per global node.
	CrossOut [][]graph.Node
	// Shards is the per-shard state vector (len K).
	Shards []ShardParts
	// Summary is the epoch's frozen boundary summary.
	Summary *part.Summary
	// Stitched is the epoch's cross-shard pattern quotient.
	Stitched *part.Stitched
}

// WriteSharded atomically persists a sharded snapshot to path through
// faultfs.ReplaceFile.
func WriteSharded(path string, p *ShardedParts) error {
	return WriteShardedFS(faultfs.Disk, path, p)
}

// WriteShardedFS is WriteSharded over an explicit filesystem.
func WriteShardedFS(fsys faultfs.FS, path string, p *ShardedParts) error {
	return faultfs.ReplaceFile(faultfs.Or(fsys), path, EncodeSharded(p))
}

// EncodeSharded serializes a sharded snapshot to its file image.
func EncodeSharded(p *ShardedParts) []byte {
	return encodeSharded(p).encode()
}

func encodeSharded(p *ShardedParts) *writer {
	w := newWriter(KindSharded, p.Epoch, nil)
	shared := p.Labels
	w.strings(tagLabels, shared.Names())
	w.u64(tagMeta, uint64(p.K))
	w.int32s(tagMeta+1, p.ShardOf)
	w.int32s(tagMeta+2, p.NodeLabel)
	w.rows(tagMeta+3, p.CrossOut)
	for s, sp := range p.Shards {
		base := uint32(tagShard0 + s*tagShardStr)
		putCSR(w, base, sp.G, shared)
		putReach(w, base+0x20, sp.ReachClassOf, sp.ReachCyclic)
		putCSR(w, base+0x40, sp.ReachGr, shared)
	}
	putCSR(w, tagSummary, p.Summary.S, shared)
	putCSR(w, tagStitched, p.Stitched.Q, shared)
	w.int32s(tagStitched+0x10, p.Stitched.BlockOf)
	w.rows(tagStitched+0x11, p.Stitched.Members)
	w.int32s(tagStitched+0x12, p.Stitched.ShardOfBlock)
	return w
}

// DecodeSharded decodes and validates a sharded snapshot image.
func DecodeSharded(data []byte) (*ShardedParts, error) {
	r, err := open(data)
	if err != nil {
		return nil, err
	}
	if r.kind != KindSharded {
		return nil, fmt.Errorf("%w: kind %v, want %v", ErrFormat, r.kind, KindSharded)
	}
	p := &ShardedParts{Epoch: r.epoch}
	names, err := r.strings(tagLabels)
	if err != nil {
		return nil, err
	}
	if p.Labels, err = graph.LabelsFromNames(names); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	k64, err := r.u64(tagMeta)
	if err != nil {
		return nil, err
	}
	if k64 < 1 || k64 > 1<<16 {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrFormat, k64)
	}
	p.K = int(k64)
	if p.ShardOf, err = r.int32s(tagMeta + 1); err != nil {
		return nil, err
	}
	if p.NodeLabel, err = r.int32s(tagMeta + 2); err != nil {
		return nil, err
	}
	if p.CrossOut, err = r.rows(tagMeta + 3); err != nil {
		return nil, err
	}
	n := len(p.ShardOf)
	if len(p.NodeLabel) != n || len(p.CrossOut) != n {
		return nil, fmt.Errorf("%w: %d nodes but %d labels, %d cross rows", ErrFormat, n, len(p.NodeLabel), len(p.CrossOut))
	}
	nl := graph.Label(p.Labels.Count())
	localCount := make([]int, p.K)
	for v := 0; v < n; v++ {
		s := p.ShardOf[v]
		if s < 0 || int(s) >= p.K {
			return nil, fmt.Errorf("%w: node %d in unknown shard %d", ErrFormat, v, s)
		}
		localCount[s]++
		if lb := p.NodeLabel[v]; lb < 0 || lb >= nl {
			return nil, fmt.Errorf("%w: node %d has unknown label id %d", ErrFormat, v, lb)
		}
		prev := graph.Node(-1)
		for _, wv := range p.CrossOut[v] {
			if wv <= prev {
				return nil, fmt.Errorf("%w: cross row of node %d not sorted/unique", ErrFormat, v)
			}
			if int(wv) < 0 || int(wv) >= n {
				return nil, fmt.Errorf("%w: cross row of node %d references invalid node %d", ErrFormat, v, wv)
			}
			if p.ShardOf[wv] == p.ShardOf[v] {
				return nil, fmt.Errorf("%w: cross edge (%d,%d) does not cross shards", ErrFormat, v, wv)
			}
			prev = wv
		}
	}
	p.Shards = make([]ShardParts, p.K)
	sumClasses := 0
	for s := 0; s < p.K; s++ {
		sp := &p.Shards[s]
		base := uint32(tagShard0 + s*tagShardStr)
		if sp.G, err = readCSR(r, base, p.Labels); err != nil {
			return nil, err
		}
		if sp.G.NumNodes() != localCount[s] {
			return nil, fmt.Errorf("%w: shard %d subgraph has %d nodes, partition assigns %d", ErrFormat, s, sp.G.NumNodes(), localCount[s])
		}
		if sp.ReachClassOf, sp.ReachCyclic, err = readReach(r, base+0x20); err != nil {
			return nil, err
		}
		if sp.ReachGr, err = readCSR(r, base+0x40, p.Labels); err != nil {
			return nil, err
		}
		if err = validateReach(fmt.Sprintf("shard %d reach", s), localCount[s], sp.ReachGr.NumNodes(), sp.ReachClassOf, sp.ReachCyclic); err != nil {
			return nil, err
		}
		sumClasses += sp.ReachGr.NumNodes()
	}

	// The boundary list is derived, not stored: it is a pure function of
	// the cross adjacency, and deriving it removes a whole family of
	// inconsistent-file states.
	crossInDeg := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, wv := range p.CrossOut[v] {
			crossInDeg[wv]++
		}
	}
	boundary := part.BoundaryNodes(p.CrossOut, crossInDeg)
	sumS, err := readCSR(r, tagSummary, p.Labels)
	if err != nil {
		return nil, err
	}
	if sumS.NumNodes() != len(boundary)+sumClasses {
		return nil, fmt.Errorf("%w: summary has %d nodes, want %d boundary + %d classes", ErrFormat, sumS.NumNodes(), len(boundary), sumClasses)
	}
	p.Summary = &part.Summary{Boundary: boundary, S: sumS}

	st := &part.Stitched{}
	if st.Q, err = readCSR(r, tagStitched, p.Labels); err != nil {
		return nil, err
	}
	if st.BlockOf, err = r.int32s(tagStitched + 0x10); err != nil {
		return nil, err
	}
	if st.Members, err = r.rows(tagStitched + 0x11); err != nil {
		return nil, err
	}
	if st.ShardOfBlock, err = r.int32s(tagStitched + 0x12); err != nil {
		return nil, err
	}
	nb := st.Q.NumNodes()
	if len(st.Members) != nb || len(st.ShardOfBlock) != nb {
		return nil, fmt.Errorf("%w: stitched quotient has %d nodes but %d member lists, %d shard entries", ErrFormat, nb, len(st.Members), len(st.ShardOfBlock))
	}
	if err = validateMap("stitched", n, nb, st.BlockOf); err != nil {
		return nil, err
	}
	for b, s := range st.ShardOfBlock {
		if s < 0 || int(s) >= p.K {
			return nil, fmt.Errorf("%w: stitched block %d in unknown shard %d", ErrFormat, b, s)
		}
		for _, v := range st.Members[b] {
			if int(v) < 0 || int(v) >= n {
				return nil, fmt.Errorf("%w: stitched block %d contains invalid node %d", ErrFormat, b, v)
			}
			if p.ShardOf[v] != s {
				return nil, fmt.Errorf("%w: stitched block %d claims shard %d but member %d lives in shard %d", ErrFormat, b, s, v, p.ShardOf[v])
			}
		}
	}
	p.Stitched = st
	if err = r.end(); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadSharded reads and decodes a sharded snapshot file.
func LoadSharded(path string) (*ShardedParts, error) {
	return LoadShardedFS(faultfs.Disk, path)
}

// LoadShardedFS is LoadSharded over an explicit filesystem.
func LoadShardedFS(fsys faultfs.FS, path string) (*ShardedParts, error) {
	data, err := faultfs.Or(fsys).ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSharded(data)
}

// CSR flag bits, in the u64 block at a CSR's base tag. Bits csrRiceShift
// and up hold the Rice parameter of a CSR whose rows are gaps.
const (
	csrPrivateLabels = 1 << 0 // base+1 holds the CSR's own label table
	csrDegrees       = 1 << 1 // base+3 holds out-degrees, not an offset table
	csrOneLabel      = 1 << 2 // the private table holds one name, every node's label; base+2 is not written
	csrGaps          = 1 << 3 // base+4 is a byte block: the rows as Rice-coded gaps
	csrZigzagFirst   = 1 << 4 // a row's first entry is a zigzag gap from its source, not an id
	csrRiceShift     = 8
	csrKnown         = csrPrivateLabels | csrDegrees | csrOneLabel | csrGaps | csrZigzagFirst | 31<<csrRiceShift
)

// putCSR writes one CSR's successor side: label ids, out-degrees and the
// rows. The predecessor side is derived on load. When the CSR's label
// table is not the file's shared table it is embedded privately (e.g. the σ
// table of a reachability quotient); when that table holds one name, every
// node carries it and the label ids are not written. A row is sorted and
// holds each id once, so it is written as the gaps between its entries
// (entry minus the one before, minus one) in one Rice code for the whole
// CSR (planRows picks its parameter), after its first entry: an id at the
// width of the largest, or a zigzag gap from the row's source in the Rice
// code, whichever the CSR's rows take fewer bits in.
func putCSR(w *writer, base uint32, c *graph.CSR, shared *graph.Labels) {
	private := c.Labels() != shared
	deg := make([]int32, c.NumNodes())
	for v := range deg {
		deg[v] = int32(c.OutDegree(graph.Node(v)))
	}
	plan := planRows(c)
	flags := uint64(csrDegrees|csrGaps) | uint64(plan.k)<<csrRiceShift
	if plan.zigzag {
		flags |= csrZigzagFirst
	}
	if private {
		flags |= csrPrivateLabels
		if c.Labels().Count() == 1 {
			flags |= csrOneLabel
		}
	}
	w.u64(base, flags)
	if private {
		w.strings(base+1, c.Labels().Names())
	}
	if flags&csrOneLabel == 0 {
		w.int32s(base+2, c.LabelIDs())
	}
	w.int32s(base+3, deg)
	putRows(w, base+4, c, plan)
}

// rowPlan is how putRows codes a CSR's rows: the Rice parameter k,
// whether a row's first entry is a zigzag gap from its source (else an id
// of idBits bits), and a bound on the bits that takes.
type rowPlan struct {
	k       uint
	zigzag  bool
	idBits  uint
	maxBits uint64
}

// zigzag maps d to 2d for d ≥ 0 and to -2d-1 below.
func zigzag(d int64) uint64 { return uint64(d<<1 ^ d>>63) }

// riceBound bounds from above the length of the Rice codes of parameter k
// of n values that sum to sum: k+1 bits each, and unary parts that sum to
// at most sum shifted by k.
func riceBound(n, sum uint64, k uint) uint64 { return n*uint64(k+1) + sum>>k }

// planRows picks the Rice parameter and the rule for a row's first entry
// that code c's rows in the fewest bits, counted from the rows' ends: the
// gaps of a row sum to its last entry minus its first minus the gaps'
// count, so it reads two entries a row.
func planRows(c *graph.CSR) rowPlan {
	var rows, gaps, gapSum, firstSum uint64
	for v := range c.NumNodes() {
		row := c.Successors(graph.Node(v))
		if len(row) == 0 {
			continue
		}
		d := uint64(len(row) - 1)
		rows, gaps = rows+1, gaps+d
		firstSum += zigzag(int64(row[0]) - int64(v))
		gapSum += uint64(row[d]-row[0]) - d
	}
	p := rowPlan{idBits: uint(bits.Len(uint(max(c.NumNodes()-1, 0)))), maxBits: ^uint64(0)}
	for k := uint(0); k < 32; k++ {
		g := riceBound(gaps, gapSum, k)
		if t := g + rows*uint64(p.idBits); t < p.maxBits {
			p.k, p.zigzag, p.maxBits = k, false, t
		}
		if t := g + riceBound(rows, firstSum, k); t < p.maxBits {
			p.k, p.zigzag, p.maxBits = k, true, t
		}
	}
	return p
}

// putRows writes c's rows at tag as plan says, as a byte block, coding
// them in place at the end of the writer's buffer.
func putRows(w *writer, tag uint32, c *graph.CSR, plan rowPlan) {
	at0 := len(w.buf)
	w.block(tag, elemByte, 0, 0)
	start := len(w.buf)
	buf := w.grow(int((plan.maxBits+7)/8) + 8)
	k, mask := plan.k, uint64(1)<<plan.k-1
	var acc uint64
	fill, at := uint(0), 0
	for v := range c.NumNodes() {
		row := c.Successors(graph.Node(v))
		if len(row) == 0 {
			continue
		}
		// Each entry is a Rice code — g>>k zero bits, a one bit, the k low
		// bits of g — of its gap, or of its zigzag gap from v for the
		// first; or the first is an id.
		g := zigzag(int64(row[0]) - int64(v))
		for i, x := range row {
			if i > 0 {
				g = uint64(x - row[i-1] - 1)
			} else if !plan.zigzag {
				acc, fill, at = emit(buf, acc, fill, at, uint64(x), plan.idBits)
				continue
			}
			q := uint(g >> k)
			if q+k >= 56 {
				q, acc, fill, at = riceZeros(q, k, buf, acc, fill, at)
			}
			acc, fill, at = emit(buf, acc, fill, at, (1|(g&mask)<<1)<<q, q+k+1)
		}
	}
	n := at + int(fill+7)/8
	binary.LittleEndian.PutUint64(w.buf[at0+8:], uint64(n))
	w.buf = w.buf[:start+n]
	w.pad()
}

// readRows decodes the rows putRows wrote at tag for a CSR of the given
// out-degrees under flags, each entry checked to lie below the node count
// and above the entry before it. The code must end in the block's last
// byte.
func readRows(r *reader, tag uint32, flags uint64, deg []int32) ([]graph.Node, error) {
	body, err := r.bytes(tag)
	if err != nil {
		return nil, err
	}
	n := uint64(len(deg))
	// Every entry takes a bit, but an id-coded first one when the CSR has
	// one node; so a count past this bound is forged, and is refused
	// before anything is made for it.
	total := uint64(0)
	for v, d := range deg {
		if d < 0 || uint64(d) > n {
			return nil, fmt.Errorf("%w: CSR %#x node %d has out-degree %d of %d nodes", ErrFormat, tag, v, d, n)
		}
		total += uint64(d)
	}
	if total > 8*uint64(len(body))+n {
		return nil, fmt.Errorf("%w: CSR %#x claims %d entries in %d bytes of rows", ErrFormat, tag, total, len(body))
	}
	k, zigzag := uint(flags>>csrRiceShift), flags&csrZigzagFirst != 0
	idBits := uint(bits.Len64(max(n, 1) - 1))
	out := make([]graph.Node, total)
	// The codes are read from bb, which holds the nb bits from bit 8·pos−nb
	// of body on and is topped up by the next four bytes whenever it holds
	// fewer than 32: that load does not wait for a code's length. A code
	// longer than bb holds goes through bitReader.
	var bb uint64
	var nb, pos uint
	mask := uint64(1)<<k - 1
	adj := out
	for v, d := range deg {
		if d == 0 {
			continue
		}
		row := adj[:d]
		adj = adj[d:]
		if nb < 32 {
			bb |= uint64(load32(body, pos)) << (nb & 63)
			pos, nb = pos+4, nb+32
		}
		var x uint64
		switch q := uint(bits.TrailingZeros64(bb)); {
		case !zigzag:
			x, bb, nb = bb&(1<<idBits-1), bb>>(idBits&63), nb-idBits
		case q+1+k <= nb:
			x, bb, nb = uint64(q)<<k|bb>>(q+1)&mask, bb>>((q+1+k)&63), nb-(q+1+k)
		default:
			var ok bool
			if x, ok, bb, nb, pos = riceSlow(body, nb, pos, k); !ok {
				return nil, fmt.Errorf("%w: CSR %#x row %d: a code runs past the rows", ErrFormat, tag, v)
			}
		}
		if zigzag {
			x = uint64(int64(v) + (int64(x>>1) ^ -int64(x&1)))
		}
		if x >= n {
			return nil, fmt.Errorf("%w: CSR %#x row %d starts outside %d nodes", ErrFormat, tag, v, n)
		}
		row[0] = graph.Node(x)
		for j := 1; j < len(row); j++ {
			if nb < 32 {
				bb |= uint64(load32(body, pos)) << (nb & 63)
				pos, nb = pos+4, nb+32
			}
			var g uint64
			if q := uint(bits.TrailingZeros64(bb)); q+1+k <= nb {
				g, bb, nb = uint64(q)<<k|bb>>(q+1)&mask, bb>>((q+1+k)&63), nb-(q+1+k)
			} else {
				var ok bool
				if g, ok, bb, nb, pos = riceSlow(body, nb, pos, k); !ok {
					return nil, fmt.Errorf("%w: CSR %#x row %d: a code runs past the rows", ErrFormat, tag, v)
				}
			}
			if x += g + 1; x >= n {
				return nil, fmt.Errorf("%w: CSR %#x row %d runs past node %d", ErrFormat, tag, v, n)
			}
			row[j] = graph.Node(x)
		}
	}
	if p := 8*pos - nb; (p+7)/8 != uint(len(body)) {
		return nil, fmt.Errorf("%w: CSR %#x rows end at bit %d of a %d-byte block", ErrFormat, tag, p, len(body))
	}
	return out, nil
}

// riceSlow is readRows's reader for a code longer than its bit buffer
// holds, nb bits up to byte pos: it reads the code through bitReader and
// returns it with the buffer after it, the rest of one byte.
func riceSlow(body []byte, nb, pos, k uint) (uint64, bool, uint64, uint, uint) {
	r := bitReader{buf: body, p: 8*pos - nb}
	g, ok := r.rice(k)
	off := r.p & 7
	return g, ok, load(body, r.p>>3) & 0xff >> off, 8 - off, r.p>>3 + 1
}

// readCSR reads one CSR written by putCSR, fully validated, deriving its
// predecessor side. Files older encoders wrote hold an offset table at
// base+3 or the rows as ids at base+4, the predecessor side at the retired
// tags base+5 and base+6, and write the label ids of a one-name table.
func readCSR(r *reader, base uint32, shared *graph.Labels) (*graph.CSR, error) {
	flags, err := r.u64(base)
	if err != nil {
		return nil, err
	}
	labels := shared
	if flags&csrPrivateLabels != 0 {
		names, err := r.strings(base + 1)
		if err != nil {
			return nil, err
		}
		if labels, err = graph.LabelsFromNames(names); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
	}
	oneLabel, gaps := flags&csrOneLabel != 0, flags&csrGaps != 0
	switch {
	case flags&^csrKnown != 0:
		return nil, fmt.Errorf("%w: CSR %#x flags %#x", ErrFormat, base, flags)
	case oneLabel && (flags&csrPrivateLabels == 0 || labels.Count() != 1):
		return nil, fmt.Errorf("%w: CSR %#x flags %#x one label without a one-name private table", ErrFormat, base, flags)
	case (oneLabel || gaps) && flags&csrDegrees == 0:
		return nil, fmt.Errorf("%w: CSR %#x flags %#x want degrees", ErrFormat, base, flags)
	case !gaps && flags&^(csrPrivateLabels|csrDegrees|csrOneLabel) != 0:
		return nil, fmt.Errorf("%w: CSR %#x flags %#x code ids as gaps", ErrFormat, base, flags)
	}
	var label []graph.Label
	if !oneLabel {
		if label, err = r.int32s(base + 2); err != nil {
			return nil, err
		}
	}
	rows, err := r.int32s(base + 3)
	if err != nil {
		return nil, err
	}
	if oneLabel {
		label = make([]graph.Label, len(rows))
	}
	var adj []graph.Node
	if gaps {
		if len(label) != len(rows) {
			return nil, fmt.Errorf("%w: CSR %#x has %d degrees for %d nodes", ErrFormat, base, len(rows), len(label))
		}
		adj, err = readRows(r, base+4, flags, rows)
	} else {
		adj, err = r.int32s(base + 4)
	}
	if err != nil {
		return nil, err
	}
	var c *graph.CSR
	if flags&csrDegrees != 0 {
		c, err = graph.CSRFromDegrees(labels, label, rows, adj)
	} else {
		c, err = graph.CSRFromRows(labels, label, rows, adj)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return c, nil
}

// putReach writes a reach compression's node mapping and cyclic flags, at
// base and base+2: base+1 held the member rows older encoders wrote.
func putReach(w *writer, base uint32, classOf []graph.Node, cyclic []bool) {
	w.int32s(base, classOf)
	w.bools(base+2, cyclic)
}

// readReach reads the blocks written by putReach; range validation happens
// in validateReach once the quotient CSR is known.
func readReach(r *reader, base uint32) (classOf []graph.Node, cyclic []bool, err error) {
	if classOf, err = r.int32s(base); err != nil {
		return nil, nil, err
	}
	if cyclic, err = r.bools(base + 2); err != nil {
		return nil, nil, err
	}
	return classOf, cyclic, nil
}

// validateReach checks a reach node mapping and its cyclic flags against
// the node count of G and the class count of the quotient.
func validateReach(what string, n, numClasses int, classOf []graph.Node, cyclic []bool) error {
	if len(cyclic) != numClasses {
		return fmt.Errorf("%w: %s has %d cyclic flags for %d classes", ErrFormat, what, len(cyclic), numClasses)
	}
	return validateMap(what, n, numClasses, classOf)
}

// validateMap checks that classOf maps each of n nodes into [0, numClasses).
func validateMap(what string, n, numClasses int, classOf []graph.Node) error {
	if len(classOf) != n {
		return fmt.Errorf("%w: %s maps %d of %d nodes", ErrFormat, what, len(classOf), n)
	}
	return validateIDs(what+" class of node", classOf, numClasses, false)
}

// validateIDs checks that every id lies in [0, bound) and, when ascending,
// that the ids strictly increase.
func validateIDs(what string, ids []int32, bound int, ascending bool) error {
	for i, id := range ids {
		if id < 0 || int(id) >= bound || ascending && i > 0 && id <= ids[i-1] {
			return fmt.Errorf("%w: %s %d: id %d out of range or order", ErrFormat, what, i, id)
		}
	}
	return nil
}
