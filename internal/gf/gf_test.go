package gf

import (
	"testing"
	"testing/quick"
)

func TestIsPrime(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 97, 101}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	composites := []int{-3, 0, 1, 4, 6, 8, 9, 10, 12, 15, 25, 49, 91, 100}
	for _, n := range composites {
		if IsPrime(n) {
			t.Errorf("IsPrime(%d) = true, want false", n)
		}
	}
}

func TestFactorPrimePower(t *testing.T) {
	cases := []struct {
		n, p, k int
		ok      bool
	}{
		{2, 2, 1, true}, {3, 3, 1, true}, {4, 2, 2, true}, {8, 2, 3, true},
		{9, 3, 2, true}, {27, 3, 3, true}, {25, 5, 2, true}, {49, 7, 2, true},
		{121, 11, 2, true}, {13, 13, 1, true},
		{1, 0, 0, false}, {6, 0, 0, false}, {12, 0, 0, false}, {100, 0, 0, false},
	}
	for _, c := range cases {
		p, k, err := FactorPrimePower(c.n)
		if c.ok && (err != nil || p != c.p || k != c.k) {
			t.Errorf("FactorPrimePower(%d) = (%d,%d,%v), want (%d,%d,nil)", c.n, p, k, err, c.p, c.k)
		}
		if !c.ok && err == nil {
			t.Errorf("FactorPrimePower(%d) succeeded, want error", c.n)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(4, 1); err == nil {
		t.Error("New(4,1) should fail: 4 not prime")
	}
	if _, err := New(5, 0); err == nil {
		t.Error("New(5,0) should fail: bad degree")
	}
	if _, err := NewOrder(12); err == nil {
		t.Error("NewOrder(12) should fail: not a prime power")
	}
}

// checkFieldAxioms verifies the field axioms exhaustively for small fields.
func checkFieldAxioms(t *testing.T, f *Field) {
	t.Helper()
	n := f.order
	// Identities and inverses.
	for a := 0; a < n; a++ {
		if f.Add(a, 0) != a {
			t.Fatalf("a+0 != a for a=%d", a)
		}
		if f.Mul(a, 1) != a {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if f.Mul(a, 0) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
		neg, inv := false, a == 0
		for b := 0; b < n; b++ {
			neg = neg || f.Add(a, b) == 0
			inv = inv || f.Mul(a, b) == 1
		}
		if !neg {
			t.Fatalf("no additive inverse for a=%d", a)
		}
		if !inv {
			t.Fatalf("no multiplicative inverse for a=%d", a)
		}
	}
	// Commutativity, associativity, distributivity (exhaustive for small n).
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if f.Add(a, b) != f.Add(b, a) {
				t.Fatalf("add not commutative at (%d,%d)", a, b)
			}
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("mul not commutative at (%d,%d)", a, b)
			}
			for c := 0; c < n; c++ {
				if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
					t.Fatalf("add not associative at (%d,%d,%d)", a, b, c)
				}
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("mul not associative at (%d,%d,%d)", a, b, c)
				}
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("not distributive at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

func TestFieldAxiomsPrime(t *testing.T) {
	for _, p := range []int{2, 3, 5, 7, 11} {
		f, err := New(p, 1)
		if err != nil {
			t.Fatalf("New(%d,1): %v", p, err)
		}
		checkFieldAxioms(t, f)
	}
}

func TestFieldAxiomsExtension(t *testing.T) {
	cases := [][2]int{{2, 2}, {2, 3}, {3, 2}, {2, 4}, {5, 2}}
	for _, c := range cases {
		f, err := New(c[0], c[1])
		if err != nil {
			t.Fatalf("New(%d,%d): %v", c[0], c[1], err)
		}
		checkFieldAxioms(t, f)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	f, _ := New(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("Add with out-of-range element should panic")
		}
	}()
	f.Add(5, 0)
}

// TestIrreducibleExposed checks the modulus New stores: monic of degree k
// for an extension field, none for a prime field.
func TestIrreducibleExposed(t *testing.T) {
	f, _ := New(2, 3) // GF(8)
	if len(f.irred) != 4 {
		t.Fatalf("GF(8) modulus has %d coefficients, want 4", len(f.irred))
	}
	if f.irred[3] != 1 {
		t.Error("modulus not monic")
	}
	fp, _ := New(7, 1)
	if fp.irred != nil {
		t.Error("prime field should have nil modulus")
	}
}

// Property: (a+b) and (a*b) stay in range, and adding b cancels (a+b ==
// c+b only if a == c), for GF(8), GF(9) and GF(13).
func TestQuickFieldClosure(t *testing.T) {
	for _, q := range []int{8, 9, 13} {
		f, err := NewOrder(q)
		if err != nil {
			t.Fatal(err)
		}
		prop := func(x, y, z uint8) bool {
			a, b, c := int(x)%q, int(y)%q, int(z)%q
			s := f.Add(a, b)
			m := f.Mul(a, b)
			if s < 0 || s >= q || m < 0 || m >= q {
				return false
			}
			return (s == f.Add(c, b)) == (a == c)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("GF(%d) closure property failed: %v", q, err)
		}
	}
}

func TestPolyHelpers(t *testing.T) {
	// round trip int <-> poly
	for v := 0; v < 27; v++ {
		p := intToPoly(v, 3, 3)
		if got := polyToInt(p, 3); got != v {
			t.Errorf("roundtrip %d -> %v -> %d", v, p, got)
		}
	}
	// x * x == x^2 in GF(2^3) with any irreducible modulus of degree 3.
	irr, err := findIrreducible(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := []int{0, 1, 0} // x
	got := polyMulMod(x, x, irr, 2, 3)
	want := []int{0, 0, 1} // x^2
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("x*x = %v, want %v", got, want)
		}
	}
}

func BenchmarkMulGF9(b *testing.B) {
	f, _ := New(3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Mul(i%9, (i+3)%9)
	}
}

func BenchmarkNewGF16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(2, 4); err != nil {
			b.Fatal(err)
		}
	}
}
