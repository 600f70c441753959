package xrand

import (
	"math/bits"
	"testing"
)

// Oracle tests: the draws are rewritten for speed (bits.Mul64, a Perm
// that inlines the generator step and Lemire's rejection), and every
// simulation result depends on them bit for bit. The references below
// are the original straightforward forms.

// refMul64 is the portable 32-bit-limb 128-bit product.
func refMul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

func refRotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// ref is a reference generator over its own copy of a Source's state.
type ref struct {
	s     [4]uint64
	draws int
}

func (r *ref) uint64() uint64 {
	s := &r.s
	r.draws++
	result := refRotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = refRotl(s[3], 45)
	return result
}

func (r *ref) intn(n int) int {
	bound := uint64(n)
	for {
		hi, lo := refMul64(r.uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func (r *ref) perm(n int) []int {
	var dst []int
	for i := 0; i < n; i++ {
		j := r.intn(i + 1)
		dst = append(dst, 0)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// unstep inverts one generator step, so a test can place a chosen
// state (say, one whose next output is 0) a few draws ahead.
func unstep(n [4]uint64) [4]uint64 {
	bd := bits.RotateLeft64(n[3], -45) // b^d
	a := n[0] ^ bd
	x, y := n[1]^a, n[2]^a // b^c, c^(b<<17)
	z := x ^ y             // b^(b<<17)
	b := z ^ z<<17 ^ z<<34 ^ z<<51
	c := x ^ b
	return [4]uint64{a, b, c, bd ^ b}
}

func TestMul64MatchesReference(t *testing.T) {
	src := New(99)
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	check := func(a, b uint64) {
		h1, l1 := bits.Mul64(a, b)
		h2, l2 := refMul64(a, b)
		if h1 != h2 || l1 != l2 {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, h1, l1, h2, l2)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	for i := 0; i < 100000; i++ {
		check(src.Uint64(), src.Uint64()>>(i%64))
	}
}

func TestIntnMatchesReference(t *testing.T) {
	// Bounds just past 2^62 and 3·2^61 reject about a quarter of all
	// draws, so both the accept and the rejection path are exercised.
	bounds := []int{1, 2, 3, 7, 64, 1000, 1<<31 + 11, 1<<62 + 1, 3<<61 + 1, 1<<63 - 1}
	seeds := New(5)
	rejected := 0
	for trial := 0; trial < 50; trial++ {
		seed := seeds.Uint64()
		src, r := New(seed), &ref{s: New(seed).s}
		for i := 0; i < 2000; i++ {
			n := bounds[i%len(bounds)]
			if i%3 == 0 {
				n = 1 + seeds.Intn(1<<20)
			}
			before := r.draws
			if got, want := src.Intn(n), r.intn(n); got != want {
				t.Fatalf("seed %#x draw %d: Intn(%d) = %d, reference %d", seed, i, n, got, want)
			}
			rejected += r.draws - before - 1
		}
		if src.s != r.s {
			t.Fatalf("seed %#x: generator state diverged from the reference", seed)
		}
	}
	if rejected == 0 {
		t.Fatal("no draw was rejected; the rejection path went untested")
	}
}

func TestPermMatchesReference(t *testing.T) {
	seeds := New(6)
	var dst []int
	for trial := 0; trial < 300; trial++ {
		seed := seeds.Uint64()
		n := trial % 130
		src, r := New(seed), &ref{s: New(seed).s}
		dst = src.Perm(dst, n)
		want := r.perm(n)
		if len(dst) != n {
			t.Fatalf("Perm(%d) returned %d entries", n, len(dst))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("seed %#x: Perm(%d)[%d] = %d, reference %d", seed, n, i, dst[i], want[i])
			}
		}
		if src.s != r.s {
			t.Fatalf("seed %#x: Perm(%d) left the generator in a different state", seed, n)
		}
	}
}

// TestPermRejectionMatchesReference forces Perm's rejection branch:
// step i = 2 draws with bound 3, whose threshold 2^64 mod 3 = 1
// rejects exactly the output 0, which a state with s[1] = 0 yields.
// That state is placed two draws ahead of the shuffle's start.
func TestPermRejectionMatchesReference(t *testing.T) {
	zero := [4]uint64{0x0123456789abcdef, 0, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978}
	start := unstep(unstep(zero))
	probe := &Source{s: start}
	probe.Uint64()
	probe.Uint64()
	if probe.s != zero || probe.Uint64() != 0 {
		t.Fatal("unstep does not invert the generator step")
	}
	src, r := &Source{s: start}, &ref{s: start}
	got := src.Perm(nil, 8)
	want := r.perm(8)
	if r.draws != 9 {
		t.Fatalf("reference drew %d values for 8 steps, want 9 (one rejection)", r.draws)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Perm[%d] = %d, reference %d", i, got[i], want[i])
		}
	}
	if src.s != r.s {
		t.Fatal("Perm left the generator in a different state than the reference")
	}
}
