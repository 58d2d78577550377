package main

import (
	"encoding/binary"
	"math"
)

// rng is splitmix64. The benchmark owns its generators so that a change to
// the program's own workload or load-generator packages cannot move the
// inputs: the same seed gives the same keys, mixes and payloads.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// derive mixes a stream label into a seed, giving independent streams for
// workers and phases of one run.
func derive(seed uint64, label uint64) uint64 {
	r := rng{s: seed ^ label*0xD1B54A32D192ED03}
	return r.next()
}

// zipf draws ranks in [0, n) with the YCSB Zipfian distribution (Gray et
// al., "Quickly generating billion-record synthetic databases").
type zipf struct {
	n                       uint64
	alpha, zetan, eta, half float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipf{
		n:     n,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		half:  math.Pow(0.5, theta),
	}
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// key draws a scrambled-Zipfian key: popular ranks are hashed across the
// keyspace so the hot keys are not neighbours in the tree.
func (z *zipf) key(r *rng) uint64 { return fnv64(z.rank(r)) % z.n }

func fnv64(v uint64) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= 0x100000001B3
		v >>= 8
	}
	return h
}

// perm returns a seeded permutation of [0, n).
func perm(n int, r *rng) []uint64 {
	p := make([]uint64, n)
	for i := range p {
		p[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TPC-C profiles in the standard 45/43/4/4/4 mix.
const (
	txNewOrder = iota
	txPayment
	txOrderStatus
	txDelivery
	txStockLevel
)

var tpccNames = [...]string{"new_order", "payment", "order_status", "delivery", "stock_level"}

// tpccProfile draws one profile from the standard mix.
func tpccProfile(r *rng) int {
	switch x := r.intn(100); {
	case x < 45:
		return txNewOrder
	case x < 88:
		return txPayment
	case x < 92:
		return txOrderStatus
	case x < 96:
		return txDelivery
	default:
		return txStockLevel
	}
}

// tpccKind classifies the profiles for the latency metrics: writes are
// NewOrder, the paper's TPC-C figure of merit, and reads are OrderStatus.
// Pooling profiles would put each median in the gap between two
// profiles' latencies, where it jumps with the mix's sampling noise.
var tpccKind = [...]int{
	txNewOrder:    kindWrite,
	txPayment:     kindOther,
	txOrderStatus: kindRead,
	txDelivery:    kindOther,
	txStockLevel:  kindOther,
}

// payloadHeader is the prefix of every value: the key and the version
// that wrote it. The rest of the value is a pattern derived from both, so
// a reader can tell exactly which write produced the bytes it got.
const payloadHeader = 16

func fillPayload(buf []byte, key, ver uint64) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint64(buf[8:], ver)
	r := rng{s: key*0x9E3779B97F4A7C15 ^ ver}
	i := payloadHeader
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.next())
	}
	if i < len(buf) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(buf[i:], tail[:])
	}
}
