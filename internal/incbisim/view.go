package incbisim

// The published view: the quotient as a frozen CSR beside the node → block
// map and member lists pattern.Expand reads, made once per generation in a
// dense id space that keeps an untouched block's id (pub/mid). A
// maintainer's first view is a full build (Build); every later one is the
// previous one patched where the batches reached (Patch), at the cost of
// what moved. Patch and Build are the one way a pattern view is made
// anywhere — the maintainer runs them over its graph, a store that follows
// another over its CSR snapshot with the moves it was shipped, a snapshot
// decode over the graph and block map it read — and both read a block's
// quotient row off its first member: Build all rows at once by
// graph.Quotient, Patch the rows it rebuilds one by one (appendRow).

import (
	"fmt"
	"slices"

	"repro/internal/bisim"
	"repro/internal/graph"
)

// View is one published pattern view.
type View struct {
	// Gr is the frozen bisimulation quotient.
	Gr *graph.CSR
	// Compressed carries the class mapping and member index used by the
	// post-processing function P (pattern.Expand); its Gr is nil.
	Compressed *bisim.Compressed
}

// Adjacency is what making a view reads of G: the maintainer's graph or a
// frozen snapshot of it.
type Adjacency interface {
	*graph.Graph | *graph.CSR
	Labels() *graph.Labels
	Label(v graph.Node) graph.Label
	Successors(v graph.Node) []graph.Node
	Predecessors(v graph.Node) []graph.Node
}

// Rows are quotient rows: ascending block ids, each with its label and its
// successor blocks, Adj[Off[k]:Off[k+1]] for IDs[k].
type Rows struct {
	IDs   []graph.Node
	Label []graph.Label
	Off   []int32
	Adj   []graph.Node
}

// Row returns the successor blocks of IDs[k].
func (r *Rows) Row(k int) []graph.Node { return r.Adj[r.Off[k]:r.Off[k+1]] }

// Digest returns the 64-bit FNV-1a hash of each row's id, label, degree and
// successor blocks in order, every value as four little-endian bytes: the
// same in every process, so two stores that rebuilt the same rows agree.
func (r *Rows) Digest() uint64 {
	h := uint64(14695981039346656037)
	word := func(x int32) {
		for range 4 {
			h = (h ^ uint64(uint8(x))) * 1099511628211
			x >>= 8
		}
	}
	for k, id := range r.IDs {
		word(id)
		word(r.Label[k])
		word(r.Off[k+1] - r.Off[k])
		for _, b := range r.Row(k) {
			word(b)
		}
	}
	return h
}

// How says how View made the view it returned.
type How uint8

const (
	// Kept is the previous call's view: nothing changed since.
	Kept How = iota
	// Patched is the previous view patched by the Diff's moves.
	Patched
	// Built is a full build: the maintainer's first view.
	Built
)

// Diff tells how View made its view from the one it returned before.
type Diff struct {
	How How
	// Moved lists, ascending, the nodes whose published block changed and
	// To their new blocks; Rows are the quotient rows rebuilt. Both are set
	// for a patch only.
	Moved, To []graph.Node
	Rows      Rows
}

// appendRow appends block b's quotient row to dst: the blocks of first's
// successors, sorted and each once, first being b's first member. Bisimilar
// nodes have equal successor-block sets, so one member's row is every
// member's.
func appendRow[G Adjacency](dst []graph.Node, g G, first graph.Node, blockOf []graph.Node, seen *graph.StampSet, n int) []graph.Node {
	start := len(dst)
	seen.Reset(n)
	for _, w := range g.Successors(first) {
		if b := blockOf[w]; seen.Add(b) {
			dst = append(dst, b)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Build returns the view over g of the partition blockOf into n blocks,
// taking ownership of blockOf: the quotient is graph.Quotient over the
// blocks' first members, and when relabel is set it is relabeled by
// graph.Reorder's locality permutation, baked into the block map so that
// queries need no translation. A block that is empty or whose members carry
// different labels is an error; every id blockOf holds must lie in [0, n).
func Build[G Adjacency](g G, blockOf []graph.Node, n int, relabel bool) (View, error) {
	members := graph.GroupNodes(blockOf, n)
	label, first := make([]graph.Label, n), make([]graph.Node, n)
	for b, mem := range members {
		if len(mem) == 0 {
			return View{}, fmt.Errorf("pattern block %d is empty", b)
		}
		first[b], label[b] = mem[0], g.Label(mem[0])
		for _, v := range mem[1:] {
			if g.Label(v) != label[b] {
				return View{}, fmt.Errorf("node %d in pattern block %d is labeled %d, the block %d", v, b, g.Label(v), label[b])
			}
		}
	}
	gr := graph.Quotient(g, label, first, blockOf)
	if relabel {
		ro := graph.Reorder(gr)
		for v, b := range blockOf {
			blockOf[v] = ro.NewID[b]
		}
		nm := make([][]graph.Node, n)
		for b, mem := range members {
			nm[ro.NewID[b]] = mem
		}
		gr, members = ro.C, nm
	}
	return View{Gr: gr, Compressed: bisim.AssembleCompressed(nil, blockOf, members)}, nil
}

// Patcher carries Patch's scratch between calls. The zero value is ready; a
// Patcher belongs to one goroutine at a time.
type Patcher struct {
	gp                          graph.Patcher
	moved, blocks, rowSet, seen graph.StampSet
	aff                         []graph.Node
	cnt                         []int32
	rows                        Rows
	reads                       int // adjacency rows the last call read
}

// Patch returns the view old becomes over g when each node moved[i] goes to
// block to[i] and the blocks number n. srcs are the nodes whose successor
// lists changed since old. Moves are checked first: no surviving block may
// be left empty, every dropped block must be emptied, every new block must
// gain a member, and every moved node must carry its new block's label.
// Then the member lists of the blocks that gained or lost a member are
// carved anew, and the rows the change reaches are read off g: those
// blocks, the blocks of srcs and every block with an edge into a moved node
// — a row outside these keeps its members, its first member's successors
// and their blocks, hence its contents. Last, every moved node's successor
// blocks must be its new block's row, as they are for any member of a
// bisimulation's block. The rows rebuilt are returned too, valid until the
// next call; moved must not repeat a node.
func Patch[G Adjacency](p *Patcher, g G, old View, moved, to []graph.Node, n int, srcs []graph.Node) (View, *Rows, error) {
	oldOf, oldMembers := old.Compressed.ClassMap(), old.Compressed.Members
	nOld := len(oldMembers)
	span := max(n, nOld)
	p.reads = 0
	r := &p.rows
	r.IDs, r.Label, r.Off, r.Adj = r.IDs[:0], r.Label[:0], r.Off[:0], r.Adj[:0]
	if len(moved) == 0 && n == nOld && len(srcs) == 0 {
		return old, r, nil
	}
	nb := slices.Clone(oldOf)
	p.moved.Reset(len(nb))
	p.blocks.Reset(span)
	p.aff = p.aff[:0]
	touch := func(b graph.Node) {
		if p.blocks.Add(b) {
			p.aff = append(p.aff, b)
		}
	}
	for i, v := range moved {
		nb[v] = to[i]
		p.moved.Add(v)
		touch(to[i])
		touch(oldOf[v])
	}
	for q := n; q < nOld; q++ {
		for _, v := range oldMembers[q] {
			if !p.moved.Has(v) {
				return View{}, nil, fmt.Errorf("dropped block %d still holds node %d", q, v)
			}
		}
	}
	for b := nOld; b < n; b++ {
		if !p.blocks.Has(graph.Node(b)) {
			return View{}, nil, fmt.Errorf("new block %d gained no member", b)
		}
	}

	// Member lists: unchanged blocks share theirs with old; the others are
	// carved out of one array — kept members, then the moved-in ones.
	kept := func(b graph.Node, visit func(v graph.Node)) {
		if int(b) < nOld {
			for _, v := range oldMembers[b] {
				if !p.moved.Has(v) {
					visit(v)
				}
			}
		}
	}
	p.cnt = slices.Grow(p.cnt[:0], span)[:span]
	for _, b := range p.aff {
		p.cnt[b] = 0
	}
	for _, b := range to {
		p.cnt[b]++
	}
	total := len(moved)
	for _, b := range p.aff {
		if int(b) < n {
			kept(b, func(graph.Node) { p.cnt[b]++; total++ })
		}
	}
	nm := make([][]graph.Node, n)
	copy(nm, oldMembers)
	buf := make([]graph.Node, total)
	for _, b := range p.aff {
		if int(b) < n {
			c := p.cnt[b]
			nm[b], buf = buf[:0:c], buf[c:]
			kept(b, func(v graph.Node) { nm[b] = append(nm[b], v) })
		}
	}
	for i, v := range moved {
		nm[to[i]] = append(nm[to[i]], v)
	}
	// A block's first member is one it kept, if any, so it carries the
	// block's label; every node moved in must carry it too.
	for i, v := range moved {
		if l := g.Label(nm[to[i]][0]); g.Label(v) != l {
			return View{}, nil, fmt.Errorf("node %d moved into pattern block %d is labeled %d, the block %d", v, to[i], g.Label(v), l)
		}
	}
	for _, b := range p.aff {
		if int(b) < n {
			if len(nm[b]) == 0 {
				return View{}, nil, fmt.Errorf("block %d left empty", b)
			}
			slices.Sort(nm[b])
		}
	}

	// The rows the change reaches, then each read off its first member.
	p.rowSet.Reset(n)
	add := func(b graph.Node) {
		if int(b) < n && p.rowSet.Add(b) {
			r.IDs = append(r.IDs, b)
		}
	}
	for _, b := range p.aff {
		add(b)
	}
	for _, u := range srcs {
		add(nb[u])
	}
	for _, v := range moved {
		p.reads++
		for _, u := range g.Predecessors(v) {
			add(nb[u])
		}
	}
	slices.Sort(r.IDs)
	for _, b := range r.IDs {
		first := nm[b][0]
		r.Label = append(r.Label, g.Label(first))
		r.Off = append(r.Off, int32(len(r.Adj)))
		r.Adj = appendRow(r.Adj, g, first, nb, &p.seen, n)
	}
	r.Off = append(r.Off, int32(len(r.Adj)))
	p.reads += len(r.IDs) + len(moved)
	// Each moved node's row is read past the rows' end and dropped; its new
	// block, which gained it, is among the rows.
	end := len(r.Adj)
	for i, v := range moved {
		k, _ := slices.BinarySearch(r.IDs, to[i])
		r.Adj = appendRow(r.Adj, g, v, nb, &p.seen, n)
		if got := r.Adj[end:]; !slices.Equal(got, r.Row(k)) {
			return View{}, nil, fmt.Errorf("node %d moved into pattern block %d reaches blocks %v, the block's row is %v", v, to[i], got, r.Row(k))
		}
		r.Adj = r.Adj[:end]
	}
	if len(moved) == 0 && len(r.IDs) == 0 && n == nOld {
		return old, r, nil
	}
	gr := p.gp.Patch(old.Gr, n, r.IDs, r.Row, func(k int) graph.Label { return r.Label[k] })
	return View{Gr: gr, Compressed: bisim.AssembleCompressed(nil, nb, nm)}, r, nil
}

// View returns the view of the current partition, and how it was made from
// the one the previous call returned. The first call builds it in full;
// every later one patches the previous view by the change log — the blocks
// and nodes the batches since moved and the sources of their updates —
// which it then empties. The Diff is valid until the next call. Views form
// one sequence per maintainer: a caller that publishes them, diffs
// included, must be the only one calling View.
func (m *Maintainer) View() (View, *Diff) {
	d := &m.diff
	d.Moved, d.To, d.Rows = d.Moved[:0], d.To[:0], Rows{}
	switch {
	case m.view.Gr == nil:
		d.How = Built
		m.view = m.buildView()
	case m.viewGen == m.gen:
		d.How = Kept
	default:
		d.How = Patched
		m.view = m.patchView(d)
	}
	m.viewGen = m.gen
	m.resetChanges()
	return m.view, d
}

// buildView builds the view in full — Partition's blocks relabeled for
// locality — and points the id maps at it.
func (m *Maintainer) buildView() View {
	top, part := m.top(), m.Partition()
	n := part.NumBlocks()
	v, err := Build(m.g, slices.Clone(part.BlockOf), n, true)
	if err != nil {
		panic("incbisim: the maintained partition is not a bisimulation: " + err.Error())
	}
	m.mid = slices.Grow(m.mid[:0], n)[:n]
	m.pub = slices.Grow(m.pub[:0], len(top.cnt))[:len(top.cnt)]
	for i := range m.pub {
		m.pub[i] = -1
	}
	for b, mem := range v.Compressed.Members {
		id := top.cls[mem[0]]
		m.mid[b], m.pub[id] = id, int32(b)
	}
	return v
}

// patchView assigns published ids to the blocks the change log names,
// lists every node whose published block changed in d, and patches the
// previous view by them.
func (m *Maintainer) patchView(d *Diff) View {
	top, old := m.top(), m.view
	oldOf, n := old.Compressed.ClassMap(), len(m.mid)
	for len(m.pub) < len(top.cnt) {
		m.pub = append(m.pub, -1)
	}

	// An emptied block frees its id; a block new to the view takes the
	// lowest freed id or the next trailing one; ids still free after that
	// are refilled from the tail, lowest first — so a refilled id is never
	// vacated again — and the quotient stays dense.
	ps := &m.ps
	ps.holes, ps.fresh, ps.reloc = ps.holes[:0], ps.fresh[:0], ps.reloc[:0]
	for _, b := range m.logBlocks {
		switch p, live := m.pub[b], top.cnt[b] > 0; {
		case live && p < 0:
			ps.fresh = append(ps.fresh, b)
		case !live && p >= 0:
			ps.holes = append(ps.holes, p)
			m.pub[b], m.mid[p] = -1, -1
		}
	}
	slices.SortFunc(ps.holes, func(a, b int32) int { return int(b - a) })
	for _, b := range ps.fresh {
		p := int32(n)
		if k := len(ps.holes); k > 0 {
			p, ps.holes = ps.holes[k-1], ps.holes[:k-1]
		} else {
			m.mid = append(m.mid, b)
			n++
		}
		m.pub[b], m.mid[p] = p, b
	}
	for i := len(ps.holes) - 1; i >= 0; i-- {
		h := ps.holes[i]
		for n > 0 && m.mid[n-1] < 0 {
			n--
		}
		if int(h) >= n {
			continue
		}
		last := int32(n - 1)
		b := m.mid[last]
		m.pub[b], m.mid[h] = h, b
		ps.reloc = append(ps.reloc, last)
		n--
	}
	m.mid = m.mid[:n]

	// The moves: logged nodes whose published block changed, and the members
	// of a relocated block that stayed in it.
	for _, v := range m.logNodes {
		if m.pub[top.cls[v]] != oldOf[v] {
			d.Moved = append(d.Moved, v)
		}
	}
	for _, last := range ps.reloc {
		for _, v := range old.Compressed.Members[last] {
			if !m.nodeLogged[v] {
				d.Moved = append(d.Moved, v)
			}
		}
	}
	slices.Sort(d.Moved)
	for _, v := range d.Moved {
		d.To = append(d.To, m.pub[top.cls[v]])
	}
	v, rows, err := Patch(&m.vp, m.g, old, d.Moved, d.To, n, m.logSrcs)
	if err != nil {
		panic("incbisim: the change log does not describe the partition: " + err.Error())
	}
	d.Rows = *rows
	return v
}

// Compressed returns the current compressed form R(G) with its quotient as
// a mutable graph, numbered as Partition is — the numbering bisim.Compress
// gives: Build over that partition, thawed, once per generation. It leaves
// View's sequence alone.
func (m *Maintainer) Compressed() *bisim.Compressed {
	if m.comp == nil {
		part := m.Partition()
		v, err := Build(m.g, part.BlockOf, part.NumBlocks(), false)
		if err != nil {
			panic("incbisim: the maintained partition is not a bisimulation: " + err.Error())
		}
		m.comp = bisim.AssembleCompressed(v.Gr.Thaw(), part.BlockOf, v.Compressed.Members)
	}
	return m.comp
}
