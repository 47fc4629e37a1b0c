package incbisim

import (
	"slices"

	"repro/internal/graph"
)

// level is one memoised k-bisimulation partition: every node's class and,
// per class, what is needed to find the class of a signature again. The
// key of a class — the level-(k−1) class of its members and the set of
// level-(k−1) classes of their successors — is not stored: a class keeps
// the key's hash and one member whose signature is the key, and a lookup
// that meets an equal hash re-signs that member and compares the two as
// sets (sameKey). The hash only chooses where to look.
//
// A class is live while cnt > 0; outside a pass the live classes are
// exactly the ones with a slot in the table.
type level struct {
	cls []int32 // node -> class id

	hash []uint32 // class id -> hash of its key
	rep  []int32  // class id -> a member that still signs the key, or repUnknown; below that, see orphan
	cnt  []int32  // class id -> members
	free []int32  // ids with no members, reused before the arrays grow
	live int

	slots []int32 // open addressing, linear probing: 1 + class id, 0 empty
}

// repUnknown marks a class whose representative was re-signed away while
// other members stayed. It is resolved, by one scan of the level, only if a
// later signature hashes like the class's key.
const repUnknown = -1

const keepScratch = 1 << 12

// home is the slot a hash probes from: the table's size is whatever the
// class count asks for, not a power of two, so the hash is scaled instead
// of masked.
func (l *level) home(h uint32) int { return int(uint64(h) * uint64(len(l.slots)) >> 32) }

// reserve sizes the table for n classes at no more than 3/4 full.
func (l *level) reserve(n int) {
	if 4*n <= 3*len(l.slots) {
		return
	}
	l.slots = make([]int32, n+2*n/3+8)
	for id, c := range l.cnt {
		if c > 0 {
			l.place(int32(id))
		}
	}
}

func (l *level) place(id int32) {
	p := l.home(l.hash[id])
	for l.slots[p] != 0 {
		if p++; p == len(l.slots) {
			p = 0
		}
	}
	l.slots[p] = id + 1
}

// insert gives the live class id a slot; the caller has reserved it.
func (l *level) insert(id int32) {
	l.place(id)
	l.live++
}

// remove takes class id out of the table, closing the gap in its probe run
// so that no tombstones accumulate.
func (l *level) remove(id int32) {
	n := len(l.slots)
	p := l.home(l.hash[id])
	for l.slots[p] != id+1 {
		if p++; p == n {
			p = 0
		}
	}
	for q := p; ; {
		if q++; q == n {
			q = 0
		}
		next := l.slots[q] - 1
		if next < 0 {
			break
		}
		// An entry may move back to the hole unless its home lies in (p, q].
		if h := l.home(l.hash[next]); p <= q && (p < h && h <= q) || p > q && (h > p || h <= q) {
			continue
		}
		l.slots[p] = next + 1
		p = q
	}
	l.slots[p] = 0
	l.live--
}

// newID returns an id with no members.
func (l *level) newID() int32 {
	if n := len(l.free); n > 0 {
		id := l.free[n-1]
		l.free = l.free[:n-1]
		return id
	}
	l.hash = append(l.hash, 0)
	l.rep = append(l.rep, repUnknown)
	l.cnt = append(l.cnt, 0)
	return int32(len(l.cnt) - 1)
}

// clone returns a copy of l that shares nothing with it: the same classes
// under the same ids, with their keys or — for a level about to be signed
// whole over different classes below — without.
func (l *level) clone(keys bool) level {
	c := level{cls: slices.Clone(l.cls), cnt: slices.Clone(l.cnt), free: slices.Clone(l.free)}
	if keys {
		c.hash, c.rep, c.slots, c.live = slices.Clone(l.hash), slices.Clone(l.rep), slices.Clone(l.slots), l.live
	} else {
		c.hash, c.rep = make([]uint32, len(l.cnt)), make([]int32, len(l.cnt))
	}
	return c
}

// orphan is a class all of whose members are being re-signed: it has left
// the table and its id goes to one of the groups they form. While a pass
// runs, rep[id] holds -2 minus the orphan's index.
type orphan struct {
	id          int32
	group, lead int32 // Boyer–Moore vote over the groups its members joined; group -1 before any did
}

// scratch is what a pass needs beyond the levels, reused from batch to
// batch. It grows with the nodes re-signed — a few hundred in a batch — so
// the maintainer drops it after a pass over more than keepScratch nodes
// (a level signed whole, a very large batch) rather than keep O(|V|) words
// for the next such pass.
type scratch struct {
	a, srcs      []graph.Node
	chg          []graph.Node // nodes whose class id changed in the last pass
	was          []int32      // their ids before it
	sig, repSig  []uint32
	newOf        []int32 // index in a -> class joined, or ^group
	orphans      []orphan
	freed        []int32
	ids          []int32
	large        bool
	tslots       []int32  // groups by hash, 1 + group, sized a power of two
	ghash        []uint32 // group -> hash
	gend         []int32  // group -> end of its key in arena
	gsize, gnode []int32  // group -> members, one member
	gid          []int32  // group -> class id given
	arena        []uint32 // the groups' keys, concatenated

	// For signBefore: the batch's updates by source, and the last pass's
	// changes as node<<32 | previous id, ascending, built on first use.
	eff      []graph.Update
	old      []uint64
	oldEpoch uint32
}

// sign writes v's signature over the classes below (nil: the labels): v's
// class, then the distinct classes of its successors in the order they are
// first met. The tail is only ever read as a set (hashOf, sameKey).
func (m *Maintainer) sign(below []int32, v graph.Node, buf []uint32) []uint32 {
	g := m.g
	succ := g.Successors(v)
	if below == nil {
		buf = append(buf[:0], uint32(g.Label(v)))
		for _, w := range succ {
			buf = append(buf, uint32(g.Label(w)))
		}
	} else {
		buf = append(buf[:0], uint32(below[v]))
		for _, w := range succ {
			buf = append(buf, uint32(below[w]))
		}
	}
	return m.keyOf(buf)
}

// keyOf turns buf — a class, then the classes of successors with their
// repeats — into a signature by dropping the repeats from buf[1:], first
// occurrences staying in place. Pages of webcore16 link to 20–90 others and
// their classes repeat; a stamp per class finds the repeats in one pass.
func (m *Maintainer) keyOf(buf []uint32) []uint32 {
	if m.test.keyOf != nil {
		return m.test.keyOf(buf)
	}
	st := m.stamp()
	seen, k := m.seen, 1
	for _, c := range buf[1:] {
		if int(c) >= len(seen) {
			seen = m.growSeen(c)
		}
		if seen[c] != st {
			seen[c] = st
			buf[k] = c
			k++
		}
	}
	return buf[:k]
}

// stamp hands out a fresh stamp for seen.
func (m *Maintainer) stamp() uint32 {
	if m.seenStamp++; m.seenStamp == 0 {
		clear(m.seen)
		m.seenStamp = 1
	}
	return m.seenStamp
}

// growSeen makes seen cover class c and returns it.
func (m *Maintainer) growSeen(c uint32) []uint32 {
	m.seen = append(m.seen, make([]uint32, int(c)+1-len(m.seen))...)
	return m.seen
}

// smallKey is the tail length up to which sameKey compares two tails by a
// nested loop rather than by stamping one of them.
const smallKey = 8

// sameKey reports whether the signatures a and b are one key: the same
// class, and the same set of successor classes in whatever order. Each
// tail lists a class at most once, so tails of one length are equal when
// the one's classes all occur in the other. The first word is not part of
// the set: a class that is v's own and also a successor's is listed twice.
func (m *Maintainer) sameKey(a, b []uint32) bool {
	if len(a) != len(b) || a[0] != b[0] {
		return false
	}
	a, b = a[1:], b[1:]
	if len(a) <= smallKey {
	next:
		for _, x := range a {
			for _, y := range b {
				if x == y {
					continue next
				}
			}
			return false
		}
		return true
	}
	st := m.stamp()
	seen := m.seen
	for _, y := range b {
		if int(y) >= len(seen) {
			seen = m.growSeen(y)
		}
		seen[y] = st
	}
	for _, x := range a {
		if int(x) >= len(seen) || seen[x] != st {
			return false
		}
	}
	return true
}

// hashOf hashes a signature as a set: a mix of the class, plus the sum of
// the mixes of the successor classes — which no order changes — mixed once
// more. The class is mixed with bit 32 set, so that it hashes apart from the
// same id in the tail.
func (m *Maintainer) hashOf(sig []uint32) uint32 {
	if m.test.constHash {
		return 0
	}
	h := mix(uint64(sig[0]) | 1<<32)
	for _, s := range sig[1:] {
		h += mix(uint64(s))
	}
	return uint32(mix(h))
}

// mix is a bijection of 64-bit words that spreads every input bit over the
// low half.
func mix(x uint64) uint64 {
	x *= 0xff51afd7ed558ccd
	return x ^ x>>32
}

// classOf returns the live class of lv whose key is sig, the signature of
// the re-signed node v with hash h; -1 when there is none.
func (m *Maintainer) classOf(lv *level, below []int32, v graph.Node, sig []uint32, h uint32) int32 {
	if len(lv.slots) == 0 {
		return -1
	}
	for p := lv.home(h); ; {
		id := lv.slots[p] - 1
		if id < 0 {
			return -1
		}
		if lv.hash[id] == h && m.isKey(lv, below, id, v, sig) {
			return id
		}
		if p++; p == len(lv.slots) {
			p = 0
		}
	}
}

// isKey reports whether sig, the signature of the re-signed node v, is the
// key of class id, by re-signing a member of the class.
func (m *Maintainer) isKey(lv *level, below []int32, id int32, v graph.Node, sig []uint32) bool {
	s := &m.s
	switch {
	case lv.rep[id] != repUnknown:
	case lv.cls[v] == id:
		// v was a member, so the key is the signature v had before the
		// batch; if it has it still, v can vouch for the class from now on.
		s.repSig = m.signBefore(below, v, s.repSig)
		if !m.sameKey(s.repSig, sig) {
			return false
		}
		lv.rep[id] = v
		return true
	default:
		m.findReps(lv)
	}
	s.repSig = m.sign(below, lv.rep[id], s.repSig)
	return m.sameKey(s.repSig, sig)
}

// signBefore writes the signature v had at this level before the batch:
// over the successors it had then and the ids the classes below had then,
// repeats dropped as sign drops them. The last pass's change list is still
// that of the level below.
func (m *Maintainer) signBefore(below []int32, v graph.Node, buf []uint32) []uint32 {
	g, s := m.g, &m.s
	if s.oldEpoch != m.epoch {
		s.oldEpoch = m.epoch
		s.old = s.old[:0]
		for i, x := range s.chg {
			s.old = append(s.old, uint64(x)<<32|uint64(uint32(s.was[i])))
		}
		slices.Sort(s.old)
	}
	before := func(x graph.Node) uint32 {
		if below == nil {
			return uint32(g.Label(x))
		}
		if i, _ := slices.BinarySearch(s.old, uint64(x)<<32); i < len(s.old) && graph.Node(s.old[i]>>32) == x {
			return uint32(s.old[i])
		}
		return uint32(below[x])
	}
	lo, _ := slices.BinarySearchFunc(s.eff, v, func(u graph.Update, v graph.Node) int { return int(u.From) - int(v) })
	ups := s.eff[lo:]
	for i, u := range ups {
		if u.From != v {
			ups = ups[:i]
			break
		}
	}
	buf = append(buf[:0], before(v))
next:
	for _, w := range g.Successors(v) {
		for _, u := range ups {
			if u.To == w { // no edge occurs twice in eff: this one was inserted
				continue next
			}
		}
		buf = append(buf, before(w))
	}
	for _, u := range ups {
		if !u.Insert {
			buf = append(buf, before(u.To))
		}
	}
	return m.keyOf(buf)
}

// findReps gives every class that lost its representative one of the
// members that are not being re-signed.
func (m *Maintainer) findReps(lv *level) {
	m.repScans++
	for v, c := range lv.cls {
		if lv.rep[c] == repUnknown && m.mark[v] != m.epoch {
			lv.rep[c] = graph.Node(v)
		}
	}
}

// groupOf returns the group of re-signed nodes whose key is sig, creating
// it around v when there is none.
func (m *Maintainer) groupOf(sig []uint32, h uint32, v graph.Node) int32 {
	s := &m.s
	mask := len(s.tslots) - 1
	for p := int(h) & mask; ; p = (p + 1) & mask {
		g := s.tslots[p] - 1
		if g < 0 {
			g = int32(len(s.gend))
			s.tslots[p] = g + 1
			s.ghash = append(s.ghash, h)
			s.arena = append(s.arena, sig...)
			s.gend = append(s.gend, int32(len(s.arena)))
			s.gsize = append(s.gsize, 0)
			s.gnode = append(s.gnode, v)
			return g
		}
		if s.ghash[g] != h {
			continue
		}
		start := int32(0)
		if g > 0 {
			start = s.gend[g-1]
		}
		if m.sameKey(s.arena[start:s.gend[g]], sig) {
			return g
		}
	}
}

// pass brings level lv up to date with the classes below it (nil: the
// labels) by re-signing the nodes of a, which must hold every node whose
// signature may have changed — or, with all set, every node, lv's keys being
// unknown or void. It leaves the nodes whose class id changed in s.chg
// and their previous ids in s.was.
//
// Members that are not re-signed keep their class, its id and its key. A
// class with no such member gives up its key, and its id passes to the
// group of its former members that a vote among them favours — the larger
// side of a split, the whole class when it only changed key — provided
// that group's signature names no class that kept its key. So a hub that
// is alone in its class at every level keeps one id per level however
// often its successors change, and the nodes above it are not re-signed.
func (m *Maintainer) pass(lv *level, below []int32, a []graph.Node, all bool) {
	s := &m.s
	s.orphans, s.freed = s.orphans[:0], s.freed[:0]
	abandon := func(id int32) {
		lv.rep[id] = int32(-2 - len(s.orphans))
		s.orphans = append(s.orphans, orphan{id: id, group: -1})
	}
	if all {
		clear(lv.slots)
		lv.live = 0
		for id, c := range lv.cnt {
			if c > 0 {
				lv.cnt[id] = 0
				abandon(int32(id))
			}
		}
	} else {
		for _, v := range a {
			c := lv.cls[v]
			lv.cnt[c]--
			if lv.rep[c] == v {
				lv.rep[c] = repUnknown
			}
		}
		for _, v := range a {
			if c := lv.cls[v]; lv.cnt[c] == 0 && lv.rep[c] >= repUnknown {
				lv.remove(c)
				abandon(c)
			}
		}
	}

	size := 8
	for size < 2*len(a) {
		size <<= 1
	}
	if cap(s.tslots) < size {
		s.tslots = make([]int32, size)
	}
	s.tslots = s.tslots[:size]
	clear(s.tslots)
	s.ghash, s.gend, s.gsize, s.gnode, s.arena = s.ghash[:0], s.gend[:0], s.gsize[:0], s.gnode[:0], s.arena[:0]
	s.newOf = slices.Grow(s.newOf[:0], len(a))[:len(a)]
	for i, v := range a {
		s.sig = m.sign(below, v, s.sig)
		h := m.hashOf(s.sig)
		c, g := m.classOf(lv, below, v, s.sig, h), int32(-1)
		if c >= 0 {
			lv.cnt[c]++
		} else {
			g = m.groupOf(s.sig, h, v)
			s.gsize[g]++
			c = ^g
		}
		s.newOf[i] = c
		if o := lv.rep[lv.cls[v]]; o < repUnknown {
			// Boyer–Moore: the group most of the orphan's members joined leads.
			switch or := &s.orphans[-2-o]; {
			case g >= 0 && or.group == g:
				or.lead++
			case or.lead > 0:
				or.lead--
			case g >= 0:
				or.group, or.lead = g, 1
			}
		}
	}

	// Class ids for the groups: an orphan's id for the group its members
	// favoured, unless another orphan got there first; a free or new id
	// otherwise.
	s.gid = slices.Grow(s.gid[:0], len(s.gend))[:len(s.gend)]
	for g := range s.gid {
		s.gid[g] = -1
	}
	lv.reserve(lv.live + len(s.gend))
	adopt := func(id, g int32) {
		s.gid[g] = id
		lv.hash[id], lv.rep[id], lv.cnt[id] = s.ghash[g], s.gnode[g], s.gsize[g]
		lv.insert(id)
	}
	for _, or := range s.orphans {
		if or.group >= 0 && s.gid[or.group] < 0 {
			adopt(or.id, or.group)
		} else {
			lv.rep[or.id] = repUnknown
			s.freed = append(s.freed, or.id)
		}
	}
	for g := range s.gid {
		if s.gid[g] < 0 {
			adopt(lv.newID(), int32(g))
		}
	}

	s.chg, s.was = s.chg[:0], s.was[:0]
	for i, v := range a {
		c := s.newOf[i]
		if c < 0 {
			c = s.gid[^c]
		}
		if old := lv.cls[v]; c != old {
			lv.cls[v] = c
			s.chg = append(s.chg, v)
			s.was = append(s.was, old)
		}
	}
	// Freed ids are reusable from the next pass on: within one, an id names
	// the class it named before the pass or the group that took it over.
	lv.free = append(lv.free, s.freed...)
	if len(a) > keepScratch {
		s.large = true
	}
}
