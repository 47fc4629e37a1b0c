// Package reach implements reachability preserving compression (Section 3
// of the paper): given G, it computes Gr = R(G) whose nodes are the
// equivalence classes of the reachability equivalence relation Re, such
// that for every reachability query QR(v,w) on G, QR(R(v),R(w)) on Gr gives
// the same answer, evaluated by any unmodified reachability algorithm.
//
// # Definitions
//
// "x reaches u" is strict: there is a nonempty path (length >= 1) from x to
// u. (u,v) ∈ Re iff u and v have the same strict ancestor set and the same
// strict descendant set. Re is the maximum reachability relation and an
// equivalence relation (Lemma 3 of the paper).
//
// # Structure of the equivalence classes
//
// The implementation works on the SCC condensation (the paper's
// optimization). Two facts make this exact, both following from the DAG
// property of the condensation:
//
//  1. All members of an SCC are equivalent: members of a cyclic SCC share
//     all strict ancestors/descendants (including each other), so classes
//     are unions of SCCs.
//
//  2. A class is either a single cyclic SCC, or a set of trivial (acyclic,
//     single-node) SCCs. Proof: suppose a cyclic SCC S shares a class with
//     a different SCC T. A member u of S strictly reaches itself, hence all
//     of S; so members of T must also reach all of S, and symmetrically all
//     of S must reach T's members' descendants... concretely S belongs to
//     the strict descendant set and the strict ancestor set of T's members,
//     which makes S and T mutually reachable — contradiction with S ≠ T.
//     Two distinct cyclic SCCs S, S' in one class is likewise impossible
//     (each contains itself in its strict sets, the other must too, forcing
//     mutual reachability).
//
// Consequently each cyclic SCC forms its own class, and trivial SCCs are
// grouped by the pair (ancestor SCC-set, descendant SCC-set) over the
// condensation DAG.
//
// # Uniform reachability and self-loops
//
// Within a class, reachability is uniform: in a cyclic-SCC class every
// member reaches every member; in a trivial-SCC class no member reaches any
// member (if trivial SCCs A != B in one class had A → … → B, then
// A ∈ anc(B) = anc(A), contradicting acyclicity). Therefore the rewriting
// F(QR(v,w)) = QR(R(v),R(w)) is unambiguous, and cyclic classes carry a
// self-loop in Gr so that an unmodified BFS answers QR(c,c) correctly —
// matching compressR in the paper (Fig. 5), which inserts (vS,vS) when a
// member edge exists inside S and vS does not yet reach itself.
//
// # Quotient DAG and transitive reduction
//
// The class graph (ignoring self-loops) is a DAG: a class cycle
// A → B → … → A would put a class inside its own strict descendant set.
// Class-level reachability equals member-level reachability (uniform
// descendant sets), so the unique transitive reduction of the class DAG
// preserves all reachability answers while minimizing |Er| — the
// "no redundant edges" condition of compressR lines 6–8, made
// deterministic.
//
// # One reduction pass
//
// The sets themselves are never built. In a DAG, write desc(u) for the
// strict descendants of u and min(u) for the minimal elements of desc(u):
// those no other element of desc(u) reaches. min(u) is exactly u's out-row
// in the transitive reduction (a minimal c is a child of u — an inner node of
// a longer path would reach it — and the edge (u,c) is kept iff no other
// child reaches c). Then
//
//	desc(u) = desc(v)  ⇔  min(u) = min(v).
//
// (⇒) min(u) is a function of the set desc(u). (⇐) Every element of desc(u)
// is minimal or reached from one, so desc(u) = ⋃_{c ∈ min(u)} {c} ∪ desc(c)
// is a function of min(u). Dually, equal strict ancestor sets are equal
// in-rows of the reduction. So two acyclic nodes are equivalent iff their
// reduced out-rows and in-rows are equal, and Kernel.Quotient finds the
// classes in four steps: a Kahn order; one children-first pass of pooled
// descendant bitsets that keeps each node's reduced out-row; a transpose
// for the in-rows; and grouping the acyclic nodes by the pair of rows, by
// hash with exact confirmation. Cyclic nodes are singleton classes (fact 2).
// The grouping walks the nodes in the Kahn order, so a class is numbered by
// its first member's position and Gr comes out topologically numbered —
// every edge between two classes goes from the smaller id to the larger
// (Kernel.Quotient has the proof) — which the one-pass batch sweeps over a
// store's reach view need, with no renumbering pass.
//
// The class rows need no second reduction: class C's row is any member's
// reduced row mapped to classes. Were the class edge (A,B) redundant, some
// C ∉ {A,B} would lie on a class path A → C → … → B. Classmates share their
// ancestors and descendants, so class reachability is member reachability:
// the member a behind the kept edge (a,b) would reach a member c of C, and
// c would reach b — making (a,b) redundant in the DAG.
//
// # Complexity
//
// Tarjan is linear. The reduction pass runs in O(|Vscc| + |Escc| log d +
// |Er'| · |Vscc| / w) word operations, Er' being the edges it keeps, with a
// working set bounded by the antichain width of the DAG (a set is released
// once all its parents have run); the transpose and the grouping are
// linear in the reduced DAG. This meets the paper's O(|V|(|V|+|E|)) bound
// for R, and F is O(1) via the node→class index.
package reach
