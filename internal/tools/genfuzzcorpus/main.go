// Command genfuzzcorpus regenerates the checked-in seed corpora for the
// native fuzz targets (parser.FuzzParse, bytecode.FuzzDecode and the
// others) from the example programs in testdata/ and from seeded access
// scripts. Run it from anywhere inside the repo after adding or changing
// example programs:
//
//	go run ./internal/tools/genfuzzcorpus
//
// Seeds are written in the `go test fuzz v1` corpus-file format, so
// plain `go test` exercises them and `go test -fuzz` mutates from them.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/bytecode"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/types"
)

func write(dir, name, body string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	content := "go test fuzz v1\n" + body + "\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		panic(err)
	}
}

func main() {
	repo := repoRoot()
	// Parser corpus: every checked-in example program.
	pdir := filepath.Join(repo, "internal/lang/parser/testdata/fuzz/FuzzParse")
	tcs, _ := filepath.Glob(filepath.Join(repo, "testdata", "*.tc"))
	for _, tc := range tcs {
		src, err := os.ReadFile(tc)
		if err != nil {
			panic(err)
		}
		name := "seed-" + filepath.Base(tc)
		write(pdir, name, "string("+strconv.Quote(string(src))+")")
	}

	// Optimizer corpus: every example program, crossed over machine
	// environment and timing-model selectors, so the differential
	// target starts from real programs on both timing models.
	odir := filepath.Join(repo, "internal/bytecode/optimize/testdata/fuzz/FuzzOptTraceIdentity")
	for i, tc := range tcs {
		src, err := os.ReadFile(tc)
		if err != nil {
			panic(err)
		}
		for _, micro := range []bool{false, true} {
			name := fmt.Sprintf("seed-%s-%v", filepath.Base(tc), micro)
			body := fmt.Sprintf("string(%s)\nbyte(%d)\nbool(%v)\nbyte(%d)",
				strconv.Quote(string(src)), i%4, micro, i%11)
			write(odir, name, body)
		}
	}

	// Bytecode corpus: structural prefixes plus real compiled images.
	bdir := filepath.Join(repo, "internal/bytecode/testdata/fuzz/FuzzDecode")
	write(bdir, "seed-empty", "[]byte(\"\")")
	write(bdir, "seed-magic", "[]byte("+strconv.Quote("TCBC")+")")
	write(bdir, "seed-v1-header", "[]byte("+strconv.Quote("TCBC\x01")+")")
	write(bdir, "seed-v2-header", "[]byte("+strconv.Quote("TCBC\x02")+")")
	write(bdir, "seed-bad-version", "[]byte("+strconv.Quote("TCBC\x09")+")")
	lat := lattice.TwoPoint()
	for _, tc := range []string{"mitigated.tc", "rsa.tc", "login.tc"} {
		src, err := os.ReadFile(filepath.Join(repo, "testdata", tc))
		if err != nil {
			panic(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			fmt.Println("skip", tc, err)
			continue
		}
		res, err := types.Check(prog, lat)
		if err != nil {
			fmt.Println("skip", tc, err)
			continue
		}
		bp, err := bytecode.Compile(prog, res)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := bp.Encode(&buf); err != nil {
			panic(err)
		}
		write(bdir, "seed-"+tc, "[]byte("+strconv.Quote(buf.String())+")")
	}

	// Hardware-memo corpus: access scripts for the AccessSite-vs-Access
	// target, three bytes per operation (op, addr, labels; see
	// hw.runSiteScript).
	hdir := filepath.Join(repo, "internal/machine/hw/testdata/fuzz/FuzzAccessSiteMatchesAccess")
	for name, script := range accessScripts() {
		write(hdir, name, "[]byte("+strconv.Quote(string(script))+")")
	}
	fmt.Println("done")
}

// accessScripts returns the seed scripts of FuzzAccessSiteMatchesAccess:
// a hot loop of sites (memos built, replayed and broken by conflicting
// plain traffic, as in a VM loop body), the same loop cut by resets,
// and uniformly random scripts.
func accessScripts() map[string][]byte {
	r := rand.New(rand.NewSource(1))
	hot := func(resets bool) []byte {
		var b []byte
		for iter := 0; iter < 30; iter++ {
			for site := byte(0); site < 6; site++ {
				// Site accesses at stable addresses and labels.
				b = append(b, site<<4, site*5, site)
			}
			// Plain traffic over a few pages, some of it into the
			// sites' sets.
			b = append(b, 10+byte(r.Intn(3)), byte(r.Intn(256)), byte(r.Intn(256)))
			if iter%7 == 0 {
				b = append(b, 13, byte(r.Intn(256)), byte(r.Intn(256)))
			}
			if resets && iter%10 == 9 {
				b = append(b, 15, 0, 0)
			}
		}
		return b
	}
	out := map[string][]byte{
		"seed-hot-sites":        hot(false),
		"seed-hot-sites-resets": hot(true),
	}
	for i := 0; i < 4; i++ {
		b := make([]byte, 3*128)
		r.Read(b)
		out[fmt.Sprintf("seed-random-%d", i)] = b
	}
	return out
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			panic("genfuzzcorpus: no go.mod found above the working directory")
		}
		dir = parent
	}
}
