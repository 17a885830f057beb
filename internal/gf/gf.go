// Package gf implements arithmetic in finite (Galois) fields GF(p) and
// GF(p^k). It is used by the design package to construct projective planes
// PG(2, q), which yield (q²+q+1, q+1, 1) combinatorial designs suitable for
// replicated declustering with c = q+1 copies.
//
// Elements of GF(p^k) are represented as integers in [0, p^k): the base-p
// digits of the integer are the coefficients of a polynomial over GF(p),
// least-significant digit first. Arithmetic is performed modulo a monic
// irreducible polynomial of degree k found by exhaustive search, which is
// fast for the small fields used in design construction (q ≤ a few hundred).
package gf

import (
	"errors"
	"fmt"
)

// Field is a finite field of order p^k.
type Field struct {
	p     int   // characteristic (prime)
	k     int   // extension degree
	order int   // p^k
	irred []int // monic irreducible polynomial of degree k, coefficients over GF(p), len k+1; nil when k == 1
	// Multiplication table of an extension field, built at construction.
	mulTab []int // order*order entries, nil for prime fields
}

// ErrNotPrime is returned when the requested characteristic is not prime.
var ErrNotPrime = errors.New("gf: characteristic is not prime")

// ErrBadDegree is returned when the requested extension degree is < 1.
var ErrBadDegree = errors.New("gf: extension degree must be >= 1")

// IsPrime reports whether n is a prime number. Deterministic trial division;
// intended for the small orders used in design construction.
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// FactorPrimePower decomposes n as p^k with p prime. It returns an error if
// n is not a prime power.
func FactorPrimePower(n int) (p, k int, err error) {
	if n < 2 {
		return 0, 0, fmt.Errorf("gf: %d is not a prime power", n)
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			p = d
			for n > 1 {
				if n%p != 0 {
					return 0, 0, fmt.Errorf("gf: %d is not a prime power", n)
				}
				n /= p
				k++
			}
			return p, k, nil
		}
	}
	return n, 1, nil // n itself is prime
}

// New returns the finite field GF(p^k).
func New(p, k int) (*Field, error) {
	if !IsPrime(p) {
		return nil, fmt.Errorf("%w: %d", ErrNotPrime, p)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadDegree, k)
	}
	order := 1
	for i := 0; i < k; i++ {
		order *= p
	}
	f := &Field{p: p, k: k, order: order}
	if k > 1 {
		irr, err := findIrreducible(p, k)
		if err != nil {
			return nil, err
		}
		f.irred = irr
		f.buildTables()
	}
	return f, nil
}

// NewOrder returns the finite field of the given order, which must be a
// prime power.
func NewOrder(q int) (*Field, error) {
	p, k, err := FactorPrimePower(q)
	if err != nil {
		return nil, err
	}
	return New(p, k)
}

func (f *Field) check(a int) {
	if a < 0 || a >= f.order {
		panic(fmt.Sprintf("gf: element %d out of range [0,%d)", a, f.order))
	}
}

// Add returns a + b in the field.
func (f *Field) Add(a, b int) int {
	f.check(a)
	f.check(b)
	if f.k == 1 {
		return (a + b) % f.p
	}
	// Digit-wise addition mod p.
	sum := 0
	mult := 1
	for i := 0; i < f.k; i++ {
		da, db := a%f.p, b%f.p
		a /= f.p
		b /= f.p
		sum += ((da + db) % f.p) * mult
		mult *= f.p
	}
	return sum
}

// Mul returns a * b in the field.
func (f *Field) Mul(a, b int) int {
	f.check(a)
	f.check(b)
	if f.k == 1 {
		return (a * b) % f.p
	}
	return f.mulTab[a*f.order+b]
}

// --- Extension-field internals ---

// polyToInt encodes polynomial coefficients (LSB first, over GF(p)) as an int.
func polyToInt(coeffs []int, p int) int {
	out := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		out = out*p + coeffs[i]
	}
	return out
}

// intToPoly decodes an int into k polynomial coefficients.
func intToPoly(v, p, k int) []int {
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = v % p
		v /= p
	}
	return out
}

// polyMulMod multiplies two degree-<k polynomials over GF(p) and reduces
// modulo the monic irreducible polynomial irr (degree k).
func polyMulMod(a, b, irr []int, p, k int) []int {
	prod := make([]int, 2*k-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			prod[i+j] = (prod[i+j] + ai*bj) % p
		}
	}
	// Reduce: for each high-degree term x^(k+d), substitute using
	// x^k = -(irr[0] + irr[1] x + ... + irr[k-1] x^(k-1)).
	for d := len(prod) - 1; d >= k; d-- {
		c := prod[d]
		if c == 0 {
			continue
		}
		prod[d] = 0
		for j := 0; j < k; j++ {
			// x^d = x^(d-k) * x^k = x^(d-k) * (-(irr[j] x^j ...))
			prod[d-k+j] = ((prod[d-k+j]-c*irr[j])%p + p*p) % p
		}
	}
	return prod[:k]
}

// isIrreducible reports whether the monic polynomial poly (degree k,
// LSB-first with poly[k] == 1) is irreducible over GF(p), by checking that it
// has no roots (degree 2, 3) and no monic factors of degree <= k/2 otherwise.
func isIrreducible(poly []int, p, k int) bool {
	// Quick root check covers factors of degree 1.
	for x := 0; x < p; x++ {
		v := 0
		for i := k; i >= 0; i-- {
			v = (v*x + poly[i]) % p
		}
		if v == 0 {
			return false
		}
	}
	if k <= 3 {
		return true // no linear factors => irreducible for deg 2, 3
	}
	// Trial division by all monic polynomials of degree d in [2, k/2].
	for d := 2; d <= k/2; d++ {
		count := 1
		for i := 0; i < d; i++ {
			count *= p
		}
		for v := 0; v < count; v++ {
			div := append(intToPoly(v, p, d), 1) // monic degree-d
			if polyDivides(div, poly, p) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether monic polynomial a divides polynomial b over GF(p).
func polyDivides(a, b []int, p int) bool {
	rem := make([]int, len(b))
	copy(rem, b)
	da, db := len(a)-1, len(b)-1
	for d := db; d >= da; d-- {
		c := rem[d]
		if c == 0 {
			continue
		}
		for j := 0; j <= da; j++ {
			rem[d-da+j] = ((rem[d-da+j]-c*a[j])%p + p*p) % p
		}
	}
	for _, r := range rem {
		if r != 0 {
			return false
		}
	}
	return true
}

// findIrreducible searches for a monic irreducible polynomial of degree k
// over GF(p). The search is exhaustive over the p^k monic candidates; the
// density of irreducible polynomials (~1/k) makes this fast for small fields.
func findIrreducible(p, k int) ([]int, error) {
	count := 1
	for i := 0; i < k; i++ {
		count *= p
	}
	for v := 0; v < count; v++ {
		cand := append(intToPoly(v, p, k), 1)
		if cand[0] == 0 {
			continue // divisible by x
		}
		if isIrreducible(cand, p, k) {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over GF(%d)", k, p)
}

func (f *Field) buildTables() {
	n := f.order
	f.mulTab = make([]int, n*n)
	for a := 0; a < n; a++ {
		pa := intToPoly(a, f.p, f.k)
		for b := a; b < n; b++ {
			pb := intToPoly(b, f.p, f.k)
			v := polyToInt(polyMulMod(pa, pb, f.irred, f.p, f.k), f.p)
			f.mulTab[a*n+b] = v
			f.mulTab[b*n+a] = v
		}
	}
	// A modulus that is not irreducible leaves some element without an
	// inverse; that would be a bug in the modulus search.
	for a := 1; a < n; a++ {
		inv := false
		for b := 1; b < n && !inv; b++ {
			inv = f.mulTab[a*n+b] == 1
		}
		if !inv {
			panic("gf: element without inverse; modulus not irreducible")
		}
	}
}
