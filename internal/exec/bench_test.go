package exec

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/login"
	"repro/internal/apps/rsa"
	"repro/internal/bytecode"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// BenchmarkEngine* compare the tree-walking engine against the VM
// engine (compiled once via the program cache, machine reused) on the
// paper's two case-study applications. The simulated cycle counts are
// identical by construction (differential tests); what differs is host
// time per request — the service hot path.

func benchEngine(b *testing.B, engine string, prog *ast.Program, res *types.Result,
	lat lattice.Lattice, setup func(*mem.Memory)) {
	b.Helper()
	env := hw.MustEnv("partitioned", lat, hw.Table1Config())
	eng, err := NewEngine(engine, prog, res, env, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, Request{Setup: setup}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e6, "us/req")
}

func BenchmarkEngineLogin(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 32, WorkFactor: 96, WorkTableSize: 512}, lat)
	if err != nil {
		b.Fatal(err)
	}
	creds := login.MakeCredentials(16)
	att := login.Attempt{User: creds[3].User, Pass: creds[3].Pass}
	setup := func(m *mem.Memory) { app.Setup(m, creds, att, 1, 1) }
	for _, engine := range []string{"tree", "vm"} {
		b.Run(engine, func(b *testing.B) {
			benchEngine(b, engine, app.Prog, app.Res, lat, setup)
		})
	}
}

func BenchmarkEngineRSA(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := rsa.Build(rsa.Config{MaxBlocks: 4, Modulus: 1000003}, rsa.LanguageLevel, lat)
	if err != nil {
		b.Fatal(err)
	}
	msg := rsa.Message(3, 5)
	setup := func(m *mem.Memory) { app.Setup(m, 0x7FFF00FF, msg, 256) }
	for _, engine := range []string{"tree", "vm"} {
		b.Run(engine, func(b *testing.B) {
			benchEngine(b, engine, app.Prog, app.Res, lat, setup)
		})
	}
}

// BenchmarkEngineServed* run the programs the service benchmark serves
// (testdata/login.tc and testdata/rsa.tc, on the default partitioned
// Table 1 machine) with inputs drawn the way its traffic draws them,
// cycling through a fixed seeded set so the machine sees varied
// requests. Unlike BenchmarkEngineLogin, whose 4 KiB work table fits in
// the high L1D partition, login.tc's 10 KiB table keeps missing there,
// so these show what cache misses cost the engines' hardware memos.

func BenchmarkEngineServedLogin(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	setups := make([]func(*mem.Memory), 64)
	for i := range setups {
		user := int64(0) // the stored digest: tables are zero over the wire
		if r.Intn(2) == 1 {
			user = 1 + r.Int63n(1<<30)
		}
		pass, nvalid := r.Int63n(1<<30), 1+r.Int63n(100)
		setups[i] = func(m *mem.Memory) {
			m.Set("user", user)
			m.Set("pass", pass)
			m.Set("nvalid", nvalid)
		}
	}
	benchServed(b, "login.tc", setups)
}

func BenchmarkEngineServedRSA(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	setups := make([]func(*mem.Memory), 64)
	for i := range setups {
		bits := 1 + r.Intn(21)
		top := int64(1) << (bits - 1)
		key, nblocks := top|r.Int63n(top), 1+r.Int63n(10)
		setups[i] = func(m *mem.Memory) {
			m.Set("key", key)
			m.Set("nblocks", nblocks)
		}
	}
	benchServed(b, "rsa.tc", setups)
}

// benchServed runs one testdata program on both engines, request i
// taking setups[i%len(setups)].
func benchServed(b *testing.B, file string, setups []func(*mem.Memory)) {
	b.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []string{"tree", "vm"} {
		b.Run(engine, func(b *testing.B) {
			next := 0
			setup := func(m *mem.Memory) {
				setups[next%len(setups)](m)
				next++
			}
			benchEngine(b, engine, prog, res, lat, setup)
		})
	}
}

// BenchmarkEngineVMColdCompile measures the cost the cache removes: a
// full compile + fresh VM per request, against the login workload.
// Compare with BenchmarkEngineLogin/vm to see the amortization.
func BenchmarkEngineVMColdCompile(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 32, WorkFactor: 96, WorkTableSize: 512}, lat)
	if err != nil {
		b.Fatal(err)
	}
	creds := login.MakeCredentials(16)
	att := login.Attempt{User: creds[3].User, Pass: creds[3].Pass}
	env := hw.MustEnv("partitioned", lat, hw.Table1Config())
	m := mem.New(app.Prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := bytecode.Compile(app.Prog, app.Res)
		if err != nil {
			b.Fatal(err)
		}
		vm := bytecode.NewVM(bc, env, bytecode.VMOptions{Timing: bytecode.TimingTree})
		m.Zero()
		app.Setup(m, creds, att, 1, 1)
		vm.LoadFrom(m)
		if err := vm.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramCache measures the cache's hit path in isolation.
func BenchmarkProgramCache(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 32, WorkFactor: 96, WorkTableSize: 512}, lat)
	if err != nil {
		b.Fatal(err)
	}
	c := NewProgramCache(8)
	if _, err := c.Get(app.Prog, app.Res, DefaultOptLevel); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(app.Prog, app.Res, DefaultOptLevel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramCacheParallel hammers the hit path from concurrent
// goroutines — the pool-shard pattern. With the copy-on-write map the
// hit path takes no lock, so this should track the serial benchmark
// instead of collapsing onto a mutex.
func BenchmarkProgramCacheParallel(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 32, WorkFactor: 96, WorkTableSize: 512}, lat)
	if err != nil {
		b.Fatal(err)
	}
	c := NewProgramCache(8)
	if _, err := c.Get(app.Prog, app.Res, DefaultOptLevel); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Get(app.Prog, app.Res, DefaultOptLevel); err != nil {
				b.Fatal(err)
			}
		}
	})
}
