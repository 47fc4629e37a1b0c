package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicSetClearHas(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Has(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestNewNegative(t *testing.T) {
	s := New(-5)
	if s.Len() != 0 || s.Count() != 0 {
		t.Fatalf("negative capacity should clamp to empty, got len=%d", s.Len())
	}
}

func TestOrAndAndNot(t *testing.T) {
	a := New(200)
	b := New(200)
	for i := 0; i < 200; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	union := a.Clone()
	union.Or(b)
	inter := a.Clone()
	inter.And(b)
	diff := a.Clone()
	diff.AndNot(b)
	for i := 0; i < 200; i++ {
		in2, in3 := i%2 == 0, i%3 == 0
		if union.Has(i) != (in2 || in3) {
			t.Fatalf("union wrong at %d", i)
		}
		if inter.Has(i) != (in2 && in3) {
			t.Fatalf("intersection wrong at %d", i)
		}
		if diff.Has(i) != (in2 && !in3) {
			t.Fatalf("difference wrong at %d", i)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New(100)
	a.Set(3)
	a.Set(99)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(50)
	if a.Equal(b) {
		t.Fatal("modified clone still equal")
	}
	c := New(101)
	if a.Equal(c) {
		t.Fatal("sets of different capacity reported equal")
	}
}

func TestResetAndCopyFrom(t *testing.T) {
	a := New(70)
	a.Set(1)
	a.Set(69)
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
	b := New(70)
	b.Set(42)
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(256)
	want := []int{5, 64, 65, 200, 255}
	for _, i := range want {
		s.Set(i)
	}
	if got := s.Bits(); len(got) != len(want) {
		t.Fatalf("Bits len = %d, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Bits[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 64 {
		t.Fatalf("early stop visited %v", seen)
	}
}

// Property: Or is commutative and associative, And distributes over Or.
func TestQuickSetAlgebra(t *testing.T) {
	const n = 192
	mk := func(seed int64) *Set {
		s := New(n)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Set(i)
			}
		}
		return s
	}
	f := func(s1, s2, s3 int64) bool {
		a, b, c := mk(s1), mk(s2), mk(s3)
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			return false
		}
		// a ∩ (b ∪ c) == (a∩b) ∪ (a∩c)
		bc := b.Clone()
		bc.Or(c)
		lhs := a.Clone()
		lhs.And(bc)
		abx := a.Clone()
		abx.And(b)
		acx := a.Clone()
		acx.And(c)
		rhs := abx
		rhs.Or(acx)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMatchesBits(t *testing.T) {
	f := func(seed int64) bool {
		s := New(300)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 150; i++ {
			s.Set(rng.Intn(300))
		}
		return s.Count() == len(s.Bits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNextSet(t *testing.T) {
	s := New(200)
	if _, ok := s.NextSet(0); ok {
		t.Fatal("empty set reported a bit")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 130, 199} {
		s.Set(i)
	}
	want := []int{0, 1, 63, 64, 65, 130, 199}
	var got []int
	for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	// Mid-word starts land on the bit itself or the next one.
	if i, ok := s.NextSet(63); !ok || i != 63 {
		t.Fatalf("NextSet(63) = %d,%v", i, ok)
	}
	if i, ok := s.NextSet(66); !ok || i != 130 {
		t.Fatalf("NextSet(66) = %d,%v", i, ok)
	}
	if _, ok := s.NextSet(200); ok {
		t.Fatal("NextSet past capacity reported a bit")
	}
	if i, ok := s.NextSet(-5); !ok || i != 0 {
		t.Fatalf("NextSet(-5) = %d,%v", i, ok)
	}
}

func TestNextSetMatchesBits(t *testing.T) {
	f := func(seed int64) bool {
		s := New(300)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s.Set(rng.Intn(300))
		}
		want := s.Bits()
		var got []int
		for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
