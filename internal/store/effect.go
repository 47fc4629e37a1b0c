// Effects: what a follower applies instead of re-running maintenance.
//
// At publish, a store somebody tails records the effect of the group it
// just swapped in: the group's raw batches and the maintainers' own diffs —
// how incPCM moved the pattern view's node → block map, with a 64-bit
// digest of the quotient rows its patch rebuilt, and, when incRCM rebuilt
// the reach view, its old class → new class map with the nodes that do not
// follow it, plus the new reach quotient. That is O(|ΔG| + |moved|) and
// O(|Gr| + |AFF|), not O(|V|). The effects live in a ring bounded by
// effectRingBytes, and a tail round ships them from there alone
// (server.MsgEffect). A follower holding the views the effect starts from
// patches G from the effect's batches, patches both views from the rest,
// and publishes once: no dynscc, no incRCM, no incPCM, and no maintainer
// state at all.
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
// Every effect travels as one frame: the version byte, the kind byte, the
// u64 lineage of the views it brings, a snapfile encoding — a KindStore
// file for an image, a KindDiff one for a diff — and a CRC-32C of
// everything before it. Kind 0, a diff in an older encoding that wrote
// every id in four bytes, is refused.
//
// Effect bytes are untrusted input: the frame's CRC covers the whole, and
// snapfile's decoders check every count, id range and order that needs no
// state. The follower patches G batch by batch, as the leader's maintainers
// took it, so its changed sources are the ones the leader's patch took, and
// runs the moves through that patch (incbisim.Patch), which checks them and
// rebuilds every row the change reaches off its own G. Those rows must
// digest to the shipped digest: as strong as shipping them, but for a 2⁻⁶⁴
// collision. The reach map goes through incRCM's (increach.Patch), which
// refuses one that misses an old class or leaves a new class empty. A diff
// in an older layout — one that shipped the rows, or one that shipped the
// batches beside it as WAL frames — is refused, and the follower takes an
// image. A diff never goes to disk: the follower logs its batches to its
// own WAL, which stays the one record of a group, an image is installed as
// the checkpoint it is, and a store that restarts draws a new lineage.
package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/snapfile"
)

const (
	// effectVersion versions the frame below; a decoder rejects any other.
	effectVersion = 1
	// effectRingBytes bounds the encoded effects a store keeps for the
	// followers tailing it. An effect larger than the whole ring is not kept:
	// followers behind it get an image.
	effectRingBytes = 1 << 20
)

// The effect kinds, the second byte of every frame, and the bytes of a
// frame before its snapfile encoding. Kind 0 was the older diff encoding.
const (
	kindImage   = 1
	kindDiff    = 2
	frameHeader = 10
)

// ErrEffect reports shipped effect bytes a store refused — corrupt, not
// chaining from its views, or at odds with its graph. Nothing of the group
// was applied.
var ErrEffect = errors.New("store: shipped effect rejected")

// Effect is one unit a replication source ships: a diff, which carries its
// group's batches, or an image.
type Effect struct {
	// Epoch is the last epoch it covers: a diff's group ends at Epoch; an
	// image is the snapshot at Epoch.
	Epoch uint64
	// Image reports an image, which holds G.
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame returns the effect frame of kind over the views of lineage, its
// snapfile encoding appended by body.
func frame(kind byte, lineage uint64, body func([]byte) []byte) []byte {
	b := body(binary.LittleEndian.AppendUint64([]byte{effectVersion, kind}, lineage))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// encodeImage returns the image of sn.
func encodeImage(sn *Snapshot) []byte {
	return frame(kindImage, sn.Lineage, func(b []byte) []byte { return append(b, sn.encoded()...) })
}

// encodeDiff returns the frame of diff d between views of lineage.
func encodeDiff(lineage uint64, d *snapfile.DiffParts) []byte {
	return frame(kindDiff, lineage, func(b []byte) []byte { return snapfile.AppendDiff(b, d) })
}

// effect is a decoded frame: the lineage of the views it brings, its
// snapfile encoding — a view of the shipped bytes, which an image's install
// writes to disk — and what that decoded to, an image's parts or a diff,
// which own their arrays.
type effect struct {
	lineage uint64
	data    []byte
	image   *snapfile.StoreParts
	diff    *snapfile.DiffParts
}

// decodeEffect parses and validates a frame of either kind end to end. What
// needs the store's own state — |V|, the old views, the graph — is checked
// where the effect is applied.
func decodeEffect(b []byte) (*effect, error) {
	if len(b) < frameHeader+4 {
		return nil, fmt.Errorf("effect of %d bytes", len(b))
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, errors.New("effect checksum mismatch")
	}
	if b[0] != effectVersion {
		return nil, fmt.Errorf("effect version %d, want %d", b[0], effectVersion)
	}
	// No copy: the decoded parts own their arrays, so the shipped bytes,
	// which may alias a connection's read buffer, are needed only until the
	// apply returns.
	ef := &effect{lineage: binary.LittleEndian.Uint64(b[2:]), data: body[frameHeader:]}
	var err error
	switch b[1] {
	case kindImage:
		ef.image, err = snapfile.DecodeStore(ef.data)
	case kindDiff:
		ef.diff, err = snapfile.DecodeDiff(ef.data)
	default:
		err = fmt.Errorf("effect kind %d", b[1])
	}
	if err != nil {
		return nil, err
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

// push files a copy of e's bytes, sized exactly: an encoder's buffer, or a
// connection's, may be far larger than what the ring counts.
func (r *effectRing) push(e ringEntry) {
	if len(e.b) > effectRingBytes {
		return
	}
	e.b = append(make([]byte, 0, len(e.b)), e.b...)
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
// (lineage, epoch): the diffs the ring chains from there, in order;
// failing that, one image of the current snapshot, which holds G; nothing
// when the
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

// recordEffect files the effect of the group publish is about to install,
// old → sn, in the ring; batches are the group's, rd and pd are how incRCM
// and incPCM made sn's views. A reach diff — incRCM's own, taken as it made
// the view — goes with a rebuilt reach view only; pd lists no move and no
// row unless incPCM patched its view. Writer goroutine, before sn is
// installed: a tail round that finds sn published finds its effect there.
func (s *Store) recordEffect(old, sn *Snapshot, batches [][]graph.Update, rd *increach.Diff, pd *incbisim.Diff) {
	d := &snapfile.DiffParts{Epoch: sn.Epoch, Base: old.Epoch, Nodes: s.nodes, Batches: batches, Blocks: sn.Pattern.Gr.NumNodes(),
		Moved: pd.Moved, To: pd.To, Digest: pd.Rows.Digest()}
	if rd.How == increach.Rebuilt {
		d.Reach = &snapfile.ReachDiff{ClassMap: rd.ClassMap, ExNode: rd.ExNode, ExClass: rd.ExClass,
			Gr: sn.Reach.Gr, Cyclic: sn.Reach.Compressed.CyclicClass}
	}
	s.ring.push(ringEntry{lineage: sn.Lineage, base: d.Base, epoch: d.Epoch, b: encodeDiff(sn.Lineage, d)})
}

// ApplyEffect applies one shipped effect: a diff, which carries the raw
// batches of the epochs after the current one and the change they made to
// the source's views; or an image, which replaces the store's whole state
// — G, both views and, on a durable store, the directory (install.go). A
// diff's batches are appended to the WAL unchanged and applied to G, both
// views are patched from the diff, and the group publishes once, at its
// last epoch. It returns the epoch published and whether effect was an
// image. It runs no maintainer and drops any the store holds, as a store
// recovered from a checkpoint holds none. A rejected effect is ErrEffect
// and changes nothing; a failed WAL append or install is returned as is.
func (s *Store) ApplyEffect(effect []byte) (epoch uint64, image bool, err error) {
	out := s.submitTask(func() applyOutcome[ApplyResult] {
		var start time.Time
		if s.ob != nil {
			start = time.Now()
		}
		var o applyOutcome[ApplyResult]
		ef, err := decodeEffect(effect)
		switch {
		case err != nil:
			o.err = fmt.Errorf("%w: %v", ErrEffect, err)
		case ef.image != nil:
			image = true
			if o.err = s.installImage(ef); o.err == nil {
				o.epoch = ef.image.Epoch
			}
		default:
			o.epoch, o.err = s.applyEffect(ef, effect)
		}
		if o.err == nil && s.ob != nil {
			s.ob.notePublish(start)
			s.ob.apply.Observe(time.Since(start))
		}
		return o
	})
	return out.epoch, image, out.err
}

// applyEffect is ApplyEffect's diff half, on the writer goroutine; b is the
// diff's frame, which the ring keeps for followers of this store.
func (s *Store) applyEffect(ef *effect, b []byte) (uint64, error) {
	old := s.Snapshot()
	sn, err := s.effectSnapshot(old, ef)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrEffect, err)
	}
	batches := ef.diff.Batches
	if s.dur != nil {
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
	if s.ring.on.Load() { // before the swap, as publish records
		s.ring.push(ringEntry{lineage: ef.lineage, base: ef.diff.Base, epoch: sn.Epoch, b: b})
	}
	s.install(sn)
	s.mark(sn.Epoch)
	if s.dur != nil {
		s.dur.maybeCheckpoint(sn.Epoch, s.image)
	}
	return sn.Epoch, nil
}

// effectSnapshot builds the snapshot a shipped diff makes of old, without
// installing it.
func (s *Store) effectSnapshot(old *Snapshot, ef *effect) (*Snapshot, error) {
	d := ef.diff
	switch {
	case d.Nodes != s.nodes:
		return nil, fmt.Errorf("effect over %d nodes, store has %d", d.Nodes, s.nodes)
	case s.batches.Load() != old.Epoch:
		return nil, fmt.Errorf("store logged epoch %d, published %d", s.batches.Load(), old.Epoch)
	case ef.lineage != old.Lineage || d.Base != old.Epoch:
		return nil, fmt.Errorf("effect starts from views %x@%d, store holds %x@%d", ef.lineage, d.Base, old.Lineage, old.Epoch)
	}
	// G is old's thawed with the group applied batch by batch, frozen
	// again: old's own CSR when the group changed nothing. The rows G
	// changed are the sources of each batch's effective updates, as the
	// leader's maintainers absorbed them: a row one batch changed and a
	// later one changed back is one too.
	sn := &Snapshot{Epoch: d.Epoch, Lineage: ef.lineage}
	gw := old.G.Thaw()
	var srcs []graph.Node
	for _, batch := range d.Batches {
		eff := gw.Reduce(batch)
		gw.Apply(eff)
		for _, up := range eff {
			srcs = append(srcs, up.From)
		}
	}
	g := gw.Freeze()
	sn.G, sn.Reach = g, old.Reach
	if g == old.G {
		sn.gord.Store(old.gord.Load())
	}
	if rd := d.Reach; rd != nil {
		prev := increach.View{Gr: old.Reach.Gr, Compressed: old.Reach.Compressed}
		rv, err := increach.Patch(prev, rd.ClassMap, rd.ExNode, rd.ExClass, rd.Gr, rd.Cyclic)
		if err != nil {
			return nil, err
		}
		sn.Reach = newReachView(rv, s.cfg.Indexes, s.ob)
	}
	// The shipped moves go through incPCM's own patch, which checks them
	// and rebuilds every row the change reaches; those must digest to the
	// shipped digest.
	var rows *incbisim.Rows
	var err error
	if sn.Pattern, rows, err = incbisim.Patch(&s.es, g, old.Pattern, d.Moved, d.To, d.Blocks, srcs); err != nil {
		return nil, err
	}
	if got := rows.Digest(); got != d.Digest {
		return nil, fmt.Errorf("the %d quotient rows the change reaches digest to %#x, the diff names %#x", len(rows.IDs), got, d.Digest)
	}
	return sn, nil
}
