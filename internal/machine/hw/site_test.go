package hw

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
)

// siteEnvs builds one instance of every SiteEnv implementation over a
// tiny geometry (so random addresses provoke evictions and TLB misses)
// and a non-trivial lattice.
func siteEnvs(lat lattice.Lattice) []SiteEnv {
	cfg := TinyConfig()
	return []SiteEnv{
		NewUnpartitioned(lat, cfg),
		NewNoFill(lat, cfg),
		NewPartitioned(lat, cfg),
		NewFlat(lat, 3),
	}
}

// TestAccessSiteMatchesAccess drives the memoized fast path and the
// generic path with the same random access sequence on clones of the
// same environment and requires bit-identical behaviour: per-access
// costs, final Stats, and state equivalence at every lattice level.
// The sequence mixes a small number of static "sites" (each with a
// fixed kind and mostly-stable address and labels, like program
// instructions) so memos are built, replayed many times, invalidated by
// interleaved evicting traffic, and rebuilt.
func TestAccessSiteMatchesAccess(t *testing.T) {
	for _, lat := range []lattice.Lattice{lattice.TwoPoint(), lattice.Diamond()} {
		levels := lat.Levels()
		for _, se := range siteEnvs(lat) {
			t.Run(lat.Name()+"/"+se.Name(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				generic := se.Clone()
				fast := se.Clone().(SiteEnv)

				const nSites = 24
				type siteSpec struct {
					kind   AccessKind
					addr   uint64
					er, ew lattice.Label
				}
				specs := make([]siteSpec, nSites)
				sites := make([]Site, nSites)
				for i := range specs {
					specs[i] = siteSpec{
						kind: AccessKind(rng.Intn(3)),
						addr: uint64(rng.Intn(64)) * 8,
						er:   levels[rng.Intn(len(levels))],
						ew:   levels[rng.Intn(len(levels))],
					}
				}
				for step := 0; step < 20000; step++ {
					i := rng.Intn(nSites)
					sp := specs[i]
					addr := sp.addr
					if rng.Intn(16) == 0 {
						// Occasionally vary the address (an indexed
						// array site) — the memo must re-key.
						addr += uint64(rng.Intn(8)) * 8
					}
					if rng.Intn(64) == 0 {
						// Occasionally vary the labels (a fetch site
						// reached under different SETLBL history).
						sp.er = levels[rng.Intn(len(levels))]
					}
					cg := generic.Access(sp.kind, addr, sp.er, sp.ew)
					cf := fast.AccessSite(&sites[i], sp.kind, addr, sp.er, sp.ew)
					if cg != cf {
						t.Fatalf("step %d site %d: cost %d (generic) != %d (site)", step, i, cg, cf)
					}
				}
				if generic.Stats() != fast.Stats() {
					t.Fatalf("stats diverged:\ngeneric %+v\nsite    %+v", generic.Stats(), fast.Stats())
				}
				for _, lv := range levels {
					if !generic.ProjEqual(fast, lv) {
						t.Fatalf("state diverged at level %v", lv)
					}
				}
			})
		}
	}
}

// TestAccessSiteInterleavedWithAccess checks that a Site survives other
// traffic going through the plain Access path on the same environment —
// the VM mixes AccessSite (memoized instructions) with Access/Branch
// (everything else), and a memo must never replay across a membership
// change caused by non-site traffic.
func TestAccessSiteInterleavedWithAccess(t *testing.T) {
	lat := lattice.TwoPoint()
	for _, se := range siteEnvs(lat) {
		t.Run(se.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			generic := se.Clone()
			fast := se.Clone().(SiteEnv)
			var site Site
			bot := lat.Bot()
			for step := 0; step < 5000; step++ {
				if rng.Intn(3) == 0 {
					// The memoized site.
					cg := generic.Access(Read, 0x100, bot, bot)
					cf := fast.AccessSite(&site, Read, 0x100, bot, bot)
					if cg != cf {
						t.Fatalf("step %d: site cost %d != %d", step, cf, cg)
					}
				} else {
					// Conflicting plain traffic evicting the site's line.
					addr := uint64(rng.Intn(32)) * 16
					cg := generic.Access(Read, addr, bot, bot)
					cf := fast.Access(Read, addr, bot, bot)
					if cg != cf {
						t.Fatalf("step %d: plain cost %d != %d", step, cf, cg)
					}
				}
			}
			if generic.Stats() != fast.Stats() {
				t.Fatalf("stats diverged:\ngeneric %+v\nsite    %+v", generic.Stats(), fast.Stats())
			}
			for _, lv := range lat.Levels() {
				if !generic.ProjEqual(fast, lv) {
					t.Fatalf("state diverged at level %v", lv)
				}
			}
		})
	}
}

// memoLive reports whether a Site's next access would replay its memo:
// it is live and no guard set's generation has moved since it was
// sealed. (live alone is cleared lazily, by the next slow path.)
func memoLive(s *Site) bool {
	return s.live && s.guardSum() == s.gsum
}

// dataHier returns the data hierarchy (the level-lv partition, for
// Partitioned) of a memoizing environment, or nil for Flat.
func dataHier(e SiteEnv, lv lattice.Label) *hier {
	switch e := e.(type) {
	case *Unpartitioned:
		return e.data
	case *NoFill:
		return e.data
	case *Partitioned:
		return e.data[lv.ID()]
	}
	return nil
}

// sitePair runs the same traffic on two clones of one environment,
// plain Access on one and AccessSite (through a single Site) on the
// other, failing on the first cost that differs.
type sitePair struct {
	t       *testing.T
	generic Env
	fast    SiteEnv
	site    Site
	addr    uint64
	er, ew  lattice.Label
}

func newSitePair(t *testing.T, e SiteEnv, addr uint64, er, ew lattice.Label) *sitePair {
	return &sitePair{t: t, generic: e.Clone(), fast: e.Clone().(SiteEnv), addr: addr, er: er, ew: ew}
}

// access runs the memoized site once.
func (p *sitePair) access() {
	p.t.Helper()
	cg := p.generic.Access(Read, p.addr, p.er, p.ew)
	if cf := p.fast.AccessSite(&p.site, Read, p.addr, p.er, p.ew); cf != cg {
		p.t.Fatalf("site cost %d, generic %d", cf, cg)
	}
}

// plain runs one non-site access on both environments.
func (p *sitePair) plain(addr uint64, er, ew lattice.Label) {
	p.t.Helper()
	cg := p.generic.Access(Read, addr, er, ew)
	if cf := p.fast.Access(Read, addr, er, ew); cf != cg {
		p.t.Fatalf("plain access %#x: cost %d, generic %d", addr, cf, cg)
	}
}

// same requires identical Stats and state at every level.
func (p *sitePair) same(lat lattice.Lattice) {
	p.t.Helper()
	if p.generic.Stats() != p.fast.Stats() {
		p.t.Fatalf("stats diverged:\ngeneric %+v\nsite    %+v", p.generic.Stats(), p.fast.Stats())
	}
	for _, lv := range lat.Levels() {
		if !p.generic.ProjEqual(p.fast, lv) {
			p.t.Fatalf("state diverged at level %v", lv)
		}
	}
}

// TestSiteGuardPerSet checks that a memo is guarded by the sets it
// probed, not by whole caches: a fill into a different set of the same
// caches leaves it live (and its replay still matches Access), a fill
// into its own L1 set drops it, and so does a flush. It covers every
// memoizing mode of every SiteEnv; Flat keeps no memo.
func TestSiteGuardPerSet(t *testing.T) {
	two := lattice.TwoPoint()
	bot, top := two.Bot(), two.Top()
	cfg := TinyConfig()
	cases := []struct {
		name         string
		env          SiteEnv
		er, ew       lattice.Label
		fillR, fillW lattice.Label // labels of the plain fills
		part         lattice.Label // partition that plain fills reach
	}{
		{"unpartitioned", NewUnpartitioned(two, cfg), bot, bot, bot, bot, bot},
		{"nofill/public-write", NewNoFill(two, cfg), bot, bot, bot, bot, bot},
		{"nofill/no-fill", NewNoFill(two, cfg), bot, top, bot, bot, bot},
		{"partitioned/low", NewPartitioned(two, cfg), bot, bot, bot, bot, bot},
		{"partitioned/high", NewPartitioned(two, cfg), top, top, top, top, top},
	}
	const a = 0x100 // the site's address; page 1
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newSitePair(t, tc.env, a, tc.er, tc.ew)
			h := dataHier(p.fast, tc.part)
			// Page-mates of a: b1 warms the TLB, b2 is the fill into a
			// different L1 and L2 set, c the fill into a's own L1 set.
			var others []uint64
			for x := uint64(a); x < a+uint64(cfg.Data.PageSize); x += uint64(cfg.Data.L1.BlockSize) {
				if h.l1.SetGen(x) != h.l1.SetGen(a) && h.l2.SetGen(x) != h.l2.SetGen(a) {
					others = append(others, x)
				}
			}
			if len(others) < 2 {
				t.Fatal("TinyConfig page too small for the test addresses")
			}
			b1, b2 := others[0], others[1]
			c := a + uint64(cfg.Data.L1.Sets*cfg.Data.L1.BlockSize)

			p.plain(b1, tc.fillR, tc.fillW)
			p.access()
			p.access()
			if !memoLive(&p.site) {
				t.Fatal("no memo after a repeated access")
			}
			before := *h.l1.SetGen(b2)
			p.plain(b2, tc.fillR, tc.fillW)
			if *h.l1.SetGen(b2) == before {
				t.Fatal("the other-set access filled nothing")
			}
			if !memoLive(&p.site) {
				t.Error("a fill into a different set dropped the memo")
			}
			p.access()
			p.same(two)

			p.plain(c, tc.fillR, tc.fillW)
			if memoLive(&p.site) {
				t.Error("a fill into the memo's own set left it live")
			}
			p.access()
			p.access()
			p.same(two)

			p.generic.Reset()
			p.fast.Reset()
			if memoLive(&p.site) {
				t.Error("a flush left the memo live")
			}
			p.access()
			p.same(two)
		})
	}
}

// TestSiteSurvivesIdempotentFill covers partitioned fills that find
// the block already present: with ew ⋢ er the lookup does not search
// the ew partition, misses, and re-fills a block that partition holds.
// Only LRU order changes, so the memo of a site reading that block
// must stay live, and its replay must still match Access.
func TestSiteSurvivesIdempotentFill(t *testing.T) {
	two := lattice.TwoPoint()
	bot, top := two.Bot(), two.Top()
	p := newSitePair(t, NewPartitioned(two, TinyConfig()), 0x100, top, top)
	p.access()
	p.access()
	if !memoLive(&p.site) {
		t.Fatal("no memo after a repeated access")
	}
	p.plain(0x100, bot, top)
	if !memoLive(&p.site) {
		t.Error("an idempotent fill dropped the memo")
	}
	p.access()
	p.same(two)
}
