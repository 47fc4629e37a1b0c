package incbisim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sortedKey is how incPCM signed before signatures became sets: the tail
// sorted, repeats dropped. TestSignMatchesSorted holds the maintainer's
// class ids to a maintainer that signs this way.
func sortedKey(buf []uint32) []uint32 {
	set := buf[1:]
	slices.Sort(set)
	k := 1
	for i, s := range set {
		if i == 0 || s != buf[k-1] {
			buf[k] = s
			k++
		}
	}
	return buf[:k]
}

// sameLevels fails unless m and ref keep the same levels with the same
// class id for every node at every one.
func sameLevels(t *testing.T, what string, m, ref *Maintainer) {
	t.Helper()
	if m.fallback != ref.fallback || len(m.levels) != len(ref.levels) {
		t.Fatalf("%s: %d levels (fallback %v), the sorted reference %d (fallback %v)",
			what, len(m.levels), m.fallback, len(ref.levels), ref.fallback)
	}
	for k := range m.levels {
		got, want := m.levels[k].cls, ref.levels[k].cls
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("%s: level %d gives node %d class %d, the sorted reference %d", what, k, v, got[v], want[v])
			}
		}
	}
}

// TestSignMatchesSorted runs seeded labeled histories through a maintainer
// and through one that signs with sorted tails, and checks that every
// level's class ids agree after every batch: signing sets in the order met
// loses nothing and splits nothing. The graphs include webcore-shaped ones,
// whose entry pages have more successors than a short signature, and every
// history runs with real and with constant hashes.
func TestSignMatchesSorted(t *testing.T) {
	type history struct {
		name    string
		g       func(rng *rand.Rand) *graph.Graph
		batches int
		size    int
	}
	histories := []history{
		{"sparse", func(rng *rand.Rand) *graph.Graph { return randomLabeled(rng, 60, 120, 2) }, 80, 6},
		{"dense", func(rng *rand.Rand) *graph.Graph { return randomLabeled(rng, 120, 1800, 3) }, 60, 12},
		{"webcore", func(rng *rand.Rand) *graph.Graph { return gen.WebCore(rng, 900, 4200, 4) }, 40, 32},
	}
	long := 0
	for _, h := range histories {
		for seed := int64(1); seed <= 3; seed++ {
			for _, constHash := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				g := h.g(rng)
				for v := range g.NumNodes() {
					if len(g.Successors(graph.Node(v))) > 12 {
						long++
					}
				}
				m := newMaintainer(g.Clone(), nil, testHooks{constHash: constHash})
				ref := newMaintainer(g, nil, testHooks{constHash: constHash, keyOf: sortedKey})
				what := fmt.Sprintf("%s seed %d constHash %v", h.name, seed, constHash)
				sameLevels(t, what+", initial", m, ref)
				for round := range h.batches {
					b := gen.RandomBatch(rng, ref.Graph(), 1+rng.Intn(h.size), 0.5)
					m.Apply(b)
					ref.Apply(b)
					sameLevels(t, fmt.Sprintf("%s, batch %d", what, round), m, ref)
				}
			}
		}
	}
	if long == 0 {
		t.Fatal("no history has a node of more than 12 successors")
	}
}

// TestSameKey pins what makes two signatures one key: the same first word
// and the same tail as a set. The first word is the node's own class and is
// not part of the set — a tail that repeats it differs from one that does
// not. Every case runs on short tails (the nested loop) and on long ones
// (stamps), with the arguments both ways round.
func TestSameKey(t *testing.T) {
	m := New(labeled([]string{"A"}, nil))
	cases := []struct {
		name string
		a, b []uint32
		want bool
	}{
		{"empty tails", []uint32{3}, []uint32{3}, true},
		{"empty tails, other classes", []uint32{3}, []uint32{4}, false},
		{"one set in two orders", []uint32{3, 1, 2, 9}, []uint32{3, 9, 2, 1}, true},
		{"equal lengths, other contents", []uint32{3, 1, 2}, []uint32{3, 1, 4}, false},
		{"other lengths", []uint32{3, 1, 2}, []uint32{3, 2}, false},
		{"other first words", []uint32{3, 1, 2}, []uint32{4, 2, 1}, false},
		{"own class in both tails", []uint32{3, 3, 5}, []uint32{3, 5, 3}, true},
		{"own class in one tail", []uint32{3, 3, 5}, []uint32{3, 5, 7}, false},
		{"own class only first", []uint32{3, 5}, []uint32{5, 3}, false},
	}
	shared := make([]uint32, 2*smallKey)
	for i := range shared {
		shared[i] = uint32(100 + i)
	}
	for _, c := range cases {
		for _, grow := range []bool{false, true} {
			a, b := slices.Clone(c.a), slices.Clone(c.b)
			if grow {
				a = append(a, shared...)
				for i := len(shared) - 1; i >= 0; i-- {
					b = append(b, shared[i])
				}
			}
			if m.sameKey(a, b) != c.want || m.sameKey(b, a) != c.want {
				t.Errorf("%s (%d words): sameKey(%v, %v) is %v, want %v", c.name, len(a), a, b, m.sameKey(a, b), c.want)
			}
			if c.want && m.hashOf(a) != m.hashOf(b) {
				t.Errorf("%s (%d words): one key hashes %x and %x", c.name, len(a), m.hashOf(a), m.hashOf(b))
			}
		}
	}
	if m.hashOf([]uint32{3, 5}) == m.hashOf([]uint32{5, 3}) {
		t.Error("a signature hashes like its own class and successor class swapped")
	}
}

// TestKeyOfDropsRepeats: the tail keeps each class once, at its first
// occurrence, and the own class stays in it when a successor carries it.
func TestKeyOfDropsRepeats(t *testing.T) {
	m := New(labeled([]string{"A"}, nil))
	got := m.keyOf([]uint32{4, 7, 4, 7, 2, 40, 2, 4})
	if want := []uint32{4, 7, 4, 2, 40}; !slices.Equal(got, want) {
		t.Fatalf("keyOf gives %v, want %v", got, want)
	}
}
