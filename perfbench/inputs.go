package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/transport/wire"
)

// Every input the server sees is drawn here from the run's seed, one
// stream per purpose, so the same seed gives the same inputs and the
// server receives nothing else.

// rng returns the seeded generator for one input stream.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

const (
	streamSleep = iota + 1
	streamRSA
	streamLogin
	streamLadder
)

// sleepGen draws sleep-run requests: secret h uniform over the
// program's 6-bit range, and about one request in traceEvery asking
// for its event trace (checked against the reference semantics).
type sleepGen struct{ r *rand.Rand }

const traceEvery = 64

func newSleepGen(seed uint64, conn int) *sleepGen {
	return &sleepGen{rng(seed, streamSleep<<8|uint64(conn))}
}

func (g *sleepGen) next() wire.RunRequest {
	return wire.RunRequest{
		Inputs: map[string]int64{"h": int64(g.r.IntN(64))},
		Trace:  g.r.IntN(traceEvery) == 0,
	}
}

// rsaGen draws RSA decryptions: a private key of 1 to 21 bits (uniform
// bit length, random low bits) and a message of 1 to 10 blocks. The
// block counts are weighted so that 5 blocks holds the median with a
// wide margin on both sides (37% of messages are shorter, 41% longer):
// simulated time grows with the block count, and a median that sat on
// the boundary between two counts would flip from seed to seed.
type rsaGen struct{ r *rand.Rand }

var blockWeights = [10]int{1, 2, 3, 4, 6, 4, 3, 2, 1, 1} // nblocks 1..10

func newRSAGen(seed uint64) *rsaGen { return &rsaGen{rng(seed, streamRSA)} }

func (g *rsaGen) next() wire.RunRequest {
	bits := 1 + g.r.IntN(21)
	top := int64(1) << (bits - 1)
	key := top | g.r.Int64N(top)
	nblocks := int64(1)
	for x := g.r.IntN(27); x >= blockWeights[nblocks-1]; nblocks++ {
		x -= blockWeights[nblocks-1]
	}
	return wire.RunRequest{Inputs: map[string]int64{
		"key": key, "nblocks": nblocks,
	}}
}

// Login tenants: a Zipf population of loginPopulation tenants split
// over the connections by rank, so each tenant always arrives on the
// same connection and its requests stay in order.
const (
	loginPopulation = 1 << 14
	loginZipfS      = 1.1
	loginBatch      = 64
)

type loginGen struct {
	r     *rand.Rand
	zipf  *rand.Zipf
	conn  int
	conns int
}

func newLoginGen(seed uint64, conn, conns int) *loginGen {
	r := rng(seed, streamLogin<<8|uint64(conn))
	return &loginGen{
		r:     r,
		zipf:  rand.NewZipf(r, loginZipfS, 1, uint64(loginPopulation/conns-1)),
		conn:  conn,
		conns: conns,
	}
}

// tenantName names the tenant of a population rank (0 = heaviest).
func tenantName(rank int) string { return fmt.Sprintf("t%05d", rank) }

// next draws one login attempt: half the attempts name the stored
// user digest (0, since stored credential tables are zero over the
// wire) and half a random wrong one; the number of valid users is the
// secret.
func (g *loginGen) next() wire.RunRequest {
	rank := int(g.zipf.Uint64())*g.conns + g.conn
	user := int64(0)
	if g.r.IntN(2) == 1 {
		user = 1 + g.r.Int64N(1<<30)
	}
	return wire.RunRequest{
		Tenant: tenantName(rank),
		Inputs: map[string]int64{
			"user":   user,
			"pass":   g.r.Int64N(1 << 30),
			"nvalid": 1 + g.r.Int64N(100),
		},
		Mitigations: true,
	}
}

func (g *loginGen) batch() []wire.RunRequest {
	b := make([]wire.RunRequest, loginBatch)
	for i := range b {
		b[i] = g.next()
	}
	return b
}

// schedule returns the open-loop due offsets for n requests at rate
// per second: evenly spaced with a seeded jitter of up to half a gap,
// so requests from separate steps or seeds do not phase-lock with the
// server's timers.
func schedule(seed uint64, step int, rate float64, n int) []float64 {
	r := rng(seed, streamLadder<<8|uint64(step))
	gap := 1 / rate
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + 0.5*r.Float64()) * gap
	}
	return out
}
