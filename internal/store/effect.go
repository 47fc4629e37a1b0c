// Effects: what a follower applies instead of re-running maintenance.
//
// At publish, a store somebody tails records the effect of the group it
// just swapped in: how the pattern view's node → block map moved and the
// quotient rows incPCM's patch rebuilt, and — when the reach view moved —
// an old class → new class map with the nodes that do not follow it, plus
// the new reach quotient. That is O(|moved| + |rows|) and O(|Gr| + |AFF|),
// not O(|V|). The effects live in a ring bounded by effectRingBytes and go
// out beside the raw WAL frames of their groups (server.MsgEffect). A
// follower holding the views the effect starts from patches G from the raw
// frames, patches both views from the effect, and publishes once: no
// dynscc, no incRCM, no incPCM, and no maintainer state at all.
//
// Diffs are only valid against the exact layout they were taken from, so
// every snapshot carries a lineage: a random id drawn by each full view
// build (a store building its maintainers — open, materialize, promotion —
// or loading a checkpoint) and kept by every patch. An effect names the
// (lineage, epoch) of the views it starts from. A follower whose pair the
// ring cannot chain — after a bootstrap, a restart, a ring miss or a
// lineage break — is sent one image of the current snapshot instead, G
// included (install.go), and from then on the diffs.
//
// Effect bytes are untrusted input: the decoder checks every count and id
// and a CRC over the whole. The follower runs the moves through the patch
// the leader ran (incbisim.Patch), which checks them, and it checks that
// the rows the patch rebuilds from its own patched G are exactly the rows
// shipped, labels included. A diff never goes to disk: the WAL of raw
// batches stays the one record of a group, an image is installed as the
// checkpoint it is, and a store that restarts draws a new lineage.
package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/reach"
)

const (
	// effectVersion versions the encoding below; a decoder rejects any other.
	effectVersion = 1
	// effectRingBytes bounds the encoded effects a store keeps for the
	// followers tailing it. An effect larger than the whole ring is not kept:
	// followers behind it get an image.
	effectRingBytes = 1 << 20
)

// ErrEffect reports shipped effect bytes a store refused — corrupt, not
// chaining from its views, or at odds with its graph. Nothing of the group
// was applied.
var ErrEffect = errors.New("store: shipped effect rejected")

// Effect is one unit a replication source ships: a diff, after the raw WAL
// frames of its group, or an image, alone.
type Effect struct {
	// Epoch is the last epoch it covers: a source ships a diff's frames up
	// to Epoch, then the diff; an image is the snapshot at Epoch.
	Epoch uint64
	// Image reports an image, which holds G and comes with no frames.
	Image bool
	// Bytes is the encoding — one group's change to the views, or an image
	// of the whole snapshot — opaque outside this package and CRC-checked.
	Bytes []byte
}

// newLineage draws the id of a fresh view layout; 0 means "none".
func newLineage() uint64 {
	for {
		if l := rand.Uint64(); l != 0 {
			return l
		}
	}
}

// sigmaLabels is the one-label table of every reach quotient a store
// builds from shipped rows: σ is label 0, as in every quotient reach.Compress
// and increach build, so the zero label slice names it.
var sigmaLabels = func() *graph.Labels {
	l := graph.NewLabels()
	l.Intern(reach.SigmaLabel)
	return l
}()

// effect is the decoded form of one diff.
type effect struct {
	lineage     uint64
	base, epoch uint64 // the views at (lineage, base) become epoch's
	nodes       int

	// The pattern view: blocks is the new block count; the nodes whose
	// block id changed (ascending) with their new ids, and the rebuilt
	// quotient rows.
	blocks    int
	moved, to []graph.Node
	rows      incbisim.Rows

	// The reach view, only when it moved: an old class → new class map with
	// the nodes that do not follow it (ascending), then the new quotient's
	// rows and cyclic flags.
	reach           bool
	classMap        []graph.Node
	exNode, exClass []graph.Node
	classes         int
	grOff           []int32
	grAdj           []graph.Node
	cyclic          []bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encode returns the wire form: version, kind, lineage, base, epoch and |V|;
// the pattern part; the reach part; a CRC-32C of everything before it.
// Counts and ids are u32, little-endian.
func (ef *effect) encode() []byte {
	b := make([]byte, 0, 64+4*(2*len(ef.moved)+3*len(ef.rows.IDs)+len(ef.rows.Adj)+
		len(ef.classMap)+2*len(ef.exNode)+ef.classes+len(ef.grAdj)))
	b = append(b, effectVersion, kindDiff)
	b = binary.LittleEndian.AppendUint64(b, ef.lineage)
	b = binary.LittleEndian.AppendUint64(b, ef.base)
	b = binary.LittleEndian.AppendUint64(b, ef.epoch)
	b = appendU32(b, ef.nodes)
	b = appendU32(b, ef.blocks)
	b = appendU32(b, len(ef.moved))
	b = appendIDs(b, ef.moved)
	b = appendIDs(b, ef.to)
	b = appendU32(b, len(ef.rows.IDs))
	b = appendIDs(b, ef.rows.IDs)
	b = appendIDs(b, ef.rows.Label)
	b = appendRows(b, ef.rows.Off, ef.rows.Adj)
	if !ef.reach {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendU32(b, ef.classes)
		b = appendU32(b, len(ef.classMap))
		b = appendIDs(b, ef.classMap)
		b = appendU32(b, len(ef.exNode))
		b = appendIDs(b, ef.exNode)
		b = appendIDs(b, ef.exClass)
		b = appendRows(b, ef.grOff, ef.grAdj)
		for _, c := range ef.cyclic {
			if c {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func appendU32(b []byte, n int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(n)) }

func appendIDs(b []byte, ids []int32) []byte {
	n := len(b)
	b = slices.Grow(b, 4*len(ids))[:n+4*len(ids)]
	for i, v := range ids {
		binary.LittleEndian.PutUint32(b[n+4*i:], uint32(v))
	}
	return b
}

// appendRows writes the rows off describes: each row's length, then the
// flat ids.
func appendRows(b []byte, off []int32, adj []graph.Node) []byte {
	if len(off) == 0 {
		return b
	}
	for k := 0; k+1 < len(off); k++ {
		b = appendU32(b, int(off[k+1]-off[k]))
	}
	return appendIDs(b, adj[off[0]:off[len(off)-1]])
}

// effectReader is a bounds-checked reader of an effect's body: a failed
// read sets a sticky error and returns zero values.
type effectReader struct {
	b   []byte
	off int
	err error
}

func (r *effectReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *effectReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.fail("truncated at byte %d", r.off)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *effectReader) u8() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *effectReader) u64() uint64 {
	if v := r.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// count reads a u32 count of items of at least size bytes each, rejecting
// one above max or more than the rest of the body can hold.
func (r *effectReader) count(what string, size, max int) int {
	v := r.take(4)
	if v == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(v))
	if n > max || n*size > len(r.b)-r.off {
		r.fail("%s count %d out of range", what, n)
		return 0
	}
	return n
}

// ids reads n u32 ids, each below bound; ascending makes them strictly
// increasing as well.
func (r *effectReader) ids(what string, n, bound int, ascending bool) []graph.Node {
	v := r.take(4 * n)
	if v == nil {
		return nil
	}
	out := make([]graph.Node, n)
	for i := range out {
		id := binary.LittleEndian.Uint32(v[4*i:])
		if int64(id) >= int64(bound) || ascending && i > 0 && graph.Node(id) <= out[i-1] {
			r.fail("%s %d: id %d out of range or order", what, i, id)
			return nil
		}
		out[i] = graph.Node(id)
	}
	return out
}

// rows reads n rows written by appendRows, each strictly increasing and
// below bound.
func (r *effectReader) rows(what string, n, bound int) ([]int32, []graph.Node) {
	lens := r.ids(what+" length", n, bound+1, false)
	if r.err != nil {
		return nil, nil
	}
	off := make([]int32, n+1)
	for k, l := range lens {
		if next := int64(off[k]) + int64(l); 4*next > int64(len(r.b)-r.off) {
			r.fail("%s rows overrun the body", what)
			return nil, nil
		}
		off[k+1] = off[k] + l
	}
	adj := r.ids(what, int(off[n]), bound, false)
	for k := 0; k < n && r.err == nil; k++ {
		row := adj[off[k]:off[k+1]]
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				r.fail("%s row %d not sorted", what, k)
				break
			}
		}
	}
	return off, adj
}

// decodeEffect parses and validates an encoded diff: checksum, version,
// every count against what the body can hold, every id against its range,
// every list that must be ascending. What needs the follower's own state —
// |V|, the old views, the graph — is checked where the effect is applied.
func decodeEffect(b []byte) (*effect, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("effect of %d bytes", len(b))
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, errors.New("effect checksum mismatch")
	}
	r := &effectReader{b: body}
	if v := r.u8(); v != effectVersion {
		return nil, fmt.Errorf("effect version %d, want %d", v, effectVersion)
	}
	if kind := r.u8(); kind != kindDiff {
		return nil, fmt.Errorf("effect kind %d, want a diff", kind)
	}
	ef := &effect{lineage: r.u64(), base: r.u64(), epoch: r.u64()}
	ef.nodes = r.count("node", 0, math.MaxInt32)
	ef.blocks = r.count("block", 0, ef.nodes)
	if ef.epoch <= ef.base {
		r.fail("effect spans epochs %d..%d", ef.base, ef.epoch)
	}
	k := r.count("move", 8, ef.nodes)
	ef.moved = r.ids("moved node", k, ef.nodes, true)
	ef.to = r.ids("new block", k, ef.blocks, false)
	n := r.count("row", 12, ef.blocks)
	ef.rows.IDs = r.ids("row", n, ef.blocks, true)
	ef.rows.Label = r.ids("row label", n, math.MaxInt32, false)
	ef.rows.Off, ef.rows.Adj = r.rows("pattern", n, ef.blocks)
	switch r.u8() {
	case 0:
	case 1:
		ef.reach = true
		ef.classes = r.count("class", 0, ef.nodes)
		m := r.count("old class", 4, ef.nodes)
		ef.classMap = r.ids("new class", m, ef.classes, false)
		k := r.count("exception", 8, ef.nodes)
		ef.exNode = r.ids("excepted node", k, ef.nodes, true)
		ef.exClass = r.ids("excepted class", k, ef.classes, false)
	default:
		r.fail("reach flag out of range")
	}
	if ef.reach {
		ef.grOff, ef.grAdj = r.rows("reach", ef.classes, ef.classes)
		ef.cyclic = make([]bool, ef.classes)
		for c, f := range r.take(ef.classes) {
			if f > 1 {
				r.fail("cyclic flag %d of class %d", f, c)
			}
			ef.cyclic[c] = f == 1
		}
	}
	if r.err == nil && r.off != len(body) {
		r.fail("%d trailing bytes", len(body)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return ef, nil
}

// effectRing holds the encoded effects of the latest groups, oldest first,
// within effectRingBytes. The writer pushes; tail handlers read.
type effectRing struct {
	on    atomic.Bool // set by the first tail reader; until then nothing is recorded
	mu    sync.Mutex
	ents  []ringEntry // base epochs strictly increasing
	bytes atomic.Int64
}

type ringEntry struct {
	lineage, base, epoch uint64
	b                    []byte
}

func (r *effectRing) push(e ringEntry) {
	if len(e.b) > effectRingBytes {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ents = append(r.ents, e)
	total, drop := r.bytes.Load()+int64(len(e.b)), 0
	for total > effectRingBytes {
		total -= int64(len(r.ents[drop].b))
		drop++
	}
	r.ents = slices.Delete(r.ents, 0, drop)
	r.bytes.Store(total)
}

// reset drops every effect: an image install replaced the history they
// describe.
func (r *effectRing) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ents = nil
	r.bytes.Store(0)
}

// chain returns the effects that lead, one after another, on from the views
// at (lineage, epoch).
func (r *effectRing) chain(lineage, epoch uint64) []Effect {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, _ := slices.BinarySearchFunc(r.ents, epoch, func(e ringEntry, t uint64) int { return cmp.Compare(e.base, t) })
	var out []Effect
	for ; i < len(r.ents) && r.ents[i].lineage == lineage && r.ents[i].base == epoch; i++ {
		out = append(out, Effect{Epoch: r.ents[i].epoch, Bytes: r.ents[i].b})
		epoch = r.ents[i].epoch
	}
	return out
}

// Effects returns what a tail round ships a follower whose views are at
// (lineage, epoch): the diffs the ring chains from there, in order, each
// after the raw frames of its group; failing that, one image of the current
// snapshot, which holds G and goes without frames; nothing when the
// follower already holds the current views or is ahead of them. Lineage 0
// chains nothing, so Effects(0, 0) is always an image. The first call turns
// recording on: a store nobody tails records no effects. Safe on any
// goroutine.
func (s *Store) Effects(lineage, epoch uint64) []Effect {
	// On before the pin: a group published after the pin is recorded, one
	// published before it is in the image.
	s.ring.on.Store(true)
	sn := s.Snapshot()
	if chain := s.ring.chain(lineage, epoch); len(chain) > 0 {
		return chain
	}
	if sn.Epoch < epoch || sn.Epoch == epoch && sn.Lineage == lineage {
		return nil
	}
	return []Effect{{Epoch: sn.Epoch, Image: true, Bytes: encodeImage(sn)}}
}

// recordEffect files the effect of the group publish just installed, old →
// sn, in the ring; diff is how incPCM made sn's pattern view. Writer
// goroutine, before the epoch is marked: a tail round woken by the swap
// finds it there.
func (s *Store) recordEffect(old, sn *Snapshot, reachMoved bool, diff *incbisim.Diff) {
	ef := &effect{lineage: sn.Lineage, base: old.Epoch, epoch: sn.Epoch, nodes: s.nodes, blocks: sn.Pattern.Gr.NumNodes()}
	if diff.How == incbisim.Patched {
		ef.moved, ef.to, ef.rows = diff.Moved, diff.To, diff.Rows
	}
	if reachMoved {
		rv := sn.Reach
		ef.reach, ef.classes = true, rv.Gr.NumNodes()
		ef.classMap, ef.exNode, ef.exClass = reachMap(old.Reach.Compressed, rv.Compressed.ClassMap())
		ef.grOff, ef.grAdj, ef.cyclic = rv.Gr.OutOffsets(), rv.Gr.OutAdj(), rv.Compressed.CyclicClass
	}
	s.ring.push(ringEntry{lineage: ef.lineage, base: ef.base, epoch: ef.epoch, b: ef.encode()})
}

// reachMap derives a diff's reach map from the old compression and the new
// node → class map in one pass over V: each old class maps to the new class
// of the first node met in it, its smallest member, and the nodes that do
// not follow their class are the exceptions, ascending. It reads no member
// lists, so recording an effect never builds them.
func reachMap(old *reach.Compressed, newOf []graph.Node) (classMap, exNode, exClass []graph.Node) {
	classMap = make([]graph.Node, old.NumClasses())
	for c := range classMap {
		classMap[c] = -1
	}
	for v, c := range old.ClassMap() {
		switch to := newOf[v]; {
		case classMap[c] < 0:
			classMap[c] = to
		case to != classMap[c]:
			exNode = append(exNode, graph.Node(v))
			exClass = append(exClass, to)
		}
	}
	return classMap, exNode, exClass
}

// ApplyEffect applies one shipped group: batches, the raw WAL records of
// the epochs after the current one, and effect, the encoded change those
// batches made to the source's views; or, with no batches, an image, which
// replaces the store's whole state — G, both views and, on a durable store,
// the directory (install.go). A diff's batches are appended to the WAL
// unchanged and applied to G, both views are patched from the diff, and
// the group publishes once, at its last epoch. It returns the epoch
// published and whether effect was an image. It runs no maintainer and
// drops any the store holds, as a store recovered from a checkpoint holds
// none. A rejected effect is ErrEffect and changes nothing; a failed WAL
// append or install is returned as is.
func (s *Store) ApplyEffect(batches [][]graph.Update, effect []byte) (epoch uint64, image bool, err error) {
	image = isImage(effect)
	out := s.submitTask(func() applyOutcome[ApplyResult] {
		var o applyOutcome[ApplyResult]
		if image {
			o.epoch, o.err = s.applyImage(batches, effect)
		} else {
			o.epoch, o.err = s.applyEffect(batches, effect)
		}
		return o
	})
	return out.epoch, image, out.err
}

// applyImage is ApplyEffect's image half, on the writer goroutine.
func (s *Store) applyImage(batches [][]graph.Update, b []byte) (uint64, error) {
	var start time.Time
	if s.ob != nil {
		start = time.Now()
	}
	img, err := decodeImage(b)
	switch {
	case err != nil:
	case len(batches) > 0:
		err = fmt.Errorf("an image comes with %d frames, want none", len(batches))
	case img.parts.G.NumNodes() != s.nodes:
		err = fmt.Errorf("image over %d nodes, store has %d", img.parts.G.NumNodes(), s.nodes)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrEffect, err)
	}
	if err := s.installImage(img); err != nil {
		return 0, err
	}
	if s.ob != nil {
		s.ob.notePublish(start)
		s.ob.apply.Observe(time.Since(start))
	}
	return img.parts.Epoch, nil
}

// applyEffect is ApplyEffect's diff half, on the writer goroutine.
func (s *Store) applyEffect(batches [][]graph.Update, b []byte) (uint64, error) {
	var start time.Time
	if s.ob != nil {
		start = time.Now()
	}
	old := s.Snapshot()
	sn, ef, err := s.effectSnapshot(old, batches, b)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrEffect, err)
	}
	if s.dur != nil && len(batches) > 0 {
		var built time.Time
		if s.ob != nil {
			built = time.Now()
		}
		epochs := make([]uint64, len(batches))
		for i := range epochs {
			epochs[i] = old.Epoch + uint64(i) + 1
		}
		if err := s.dur.appendGroup(epochs, func(i int) []graph.Update { return batches[i] }); err != nil {
			return 0, err
		}
		if s.ob != nil {
			s.ob.stageWAL.Observe(time.Since(built))
		}
	}
	s.batches.Store(sn.Epoch)
	for _, batch := range batches {
		s.updates.Add(uint64(len(batch)))
	}
	s.m = nil
	s.install(sn)
	if s.ring.on.Load() {
		s.ring.push(ringEntry{lineage: ef.lineage, base: ef.base, epoch: ef.epoch, b: bytes.Clone(b)})
	}
	s.mark(sn.Epoch)
	if s.ob != nil {
		s.ob.notePublish(start)
		s.ob.apply.Observe(time.Since(start))
	}
	if s.dur != nil {
		s.dur.maybeCheckpoint(sn.Epoch, s.image)
	}
	return sn.Epoch, nil
}

// effectSnapshot builds the snapshot a shipped group makes of old, without
// installing it.
func (s *Store) effectSnapshot(old *Snapshot, batches [][]graph.Update, b []byte) (*Snapshot, *effect, error) {
	ef, err := decodeEffect(b)
	if err != nil {
		return nil, nil, err
	}
	switch last := old.Epoch + uint64(len(batches)); {
	case ef.nodes != s.nodes:
		return nil, nil, fmt.Errorf("effect over %d nodes, store has %d", ef.nodes, s.nodes)
	case ef.epoch != last || s.batches.Load() != old.Epoch:
		return nil, nil, fmt.Errorf("effect ends at epoch %d, the shipped frames at %d", ef.epoch, last)
	case ef.lineage != old.Lineage || ef.base != old.Epoch:
		return nil, nil, fmt.Errorf("effect starts from views %x@%d, store holds %x@%d", ef.lineage, ef.base, old.Lineage, old.Epoch)
	}
	// G is old's thawed with the group's net change applied, frozen again:
	// old's own CSR when the group changed nothing.
	sn := &Snapshot{Epoch: ef.epoch, Lineage: ef.lineage}
	gw := old.G.Thaw()
	eff := gw.Reduce(slices.Concat(batches...))
	gw.Apply(eff)
	g := gw.Freeze()
	sn.G = g
	if g == old.G {
		sn.gord.Store(old.gord.Load())
	}
	sn.Reach = old.Reach
	if ef.reach {
		if len(ef.classMap) != old.Reach.Compressed.NumClasses() {
			return nil, nil, fmt.Errorf("reach map over %d classes, store has %d", len(ef.classMap), old.Reach.Compressed.NumClasses())
		}
		classOf := make([]graph.Node, s.nodes)
		for v, c := range old.Reach.Compressed.ClassMap() {
			classOf[v] = ef.classMap[c]
		}
		for i, v := range ef.exNode {
			classOf[v] = ef.exClass[i]
		}
		if sn.Reach, err = s.reachView(classOf, ef); err != nil {
			return nil, nil, err
		}
	}
	// The rows G changed are the net change's sources: a row the group
	// changed and changed back is none.
	srcs := make([]graph.Node, len(eff))
	for i, up := range eff {
		srcs[i] = up.From
	}
	slices.Sort(srcs)
	sn.Pattern, err = s.patchPattern(old.Pattern, g, slices.Compact(srcs), ef)
	return sn, ef, err
}

// reachView assembles a reach view from a node → class map and the
// effect's quotient rows, which must be in topological order, as
// increach's View numbers them, with no class empty.
func (s *Store) reachView(classOf []graph.Node, ef *effect) (ReachView, error) {
	gr, err := graph.CSRFromRows(sigmaLabels, make([]graph.Label, ef.classes), ef.grOff, ef.grAdj)
	if err != nil {
		return ReachView{}, err
	}
	if !graph.IsTopoOrdered(gr) {
		return ReachView{}, errors.New("reach quotient is not in topological order")
	}
	seen, left := make([]bool, ef.classes), ef.classes
	for _, c := range classOf {
		if !seen[c] {
			seen[c] = true
			left--
		}
	}
	if left > 0 {
		return ReachView{}, fmt.Errorf("reach class %d is empty", slices.Index(seen, false))
	}
	return ReachView{Gr: gr, Compressed: reach.AssembleCompressed(nil, classOf, ef.cyclic), hop: newHopCell(s.cfg.Indexes, s.ob)}, nil
}

// patchPattern applies a diff's pattern part to old over g, the patched G,
// whose changed rows are srcs: the shipped moves go through incPCM's own
// patch, which checks them and rebuilds every row the change reaches plus
// the shipped ones. It must rebuild no row beyond those shipped, and each
// shipped row and label must be what it read off g.
func (s *Store) patchPattern(old PatternView, g *graph.CSR, srcs []graph.Node, ef *effect) (PatternView, error) {
	pv, rows, err := incbisim.Patch(&s.es, g, old, ef.moved, ef.to, ef.blocks, srcs, ef.rows.IDs)
	if err != nil {
		return PatternView{}, err
	}
	if len(rows.IDs) != len(ef.rows.IDs) {
		for _, r := range rows.IDs {
			if _, ok := slices.BinarySearch(ef.rows.IDs, r); !ok {
				return PatternView{}, fmt.Errorf("the change reaches quotient row %d, which was not shipped", r)
			}
		}
	}
	// Each shipped row is among those rebuilt: found by id, not position.
	for k, r := range ef.rows.IDs {
		j, _ := slices.BinarySearch(rows.IDs, r)
		switch {
		case rows.Label[j] != ef.rows.Label[k]:
			return PatternView{}, fmt.Errorf("row %d labeled %d, its members are %d", r, ef.rows.Label[k], rows.Label[j])
		case !slices.Equal(rows.Row(j), ef.rows.Row(k)):
			return PatternView{}, fmt.Errorf("row %d lists blocks %v, its first member reaches %v", r, ef.rows.Row(k), rows.Row(j))
		}
	}
	return pv, nil
}
