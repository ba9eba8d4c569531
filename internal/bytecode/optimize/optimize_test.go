package optimize

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang/parser"
	"repro/internal/lang/token"
	"repro/internal/lattice"
	"repro/internal/progen"
	"repro/internal/types"
)

func compileSrc(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	lat := lattice.TwoPoint()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

const loopSrc = `
var n : L;
var f : L;
var i : L;
n := 5;
f := 1;
i := 1;
while (i <= n) {
    f := f * i;
    i := i + 1;
}
if (f > 100) { n := 1; } else { n := 0; }
`

func TestCompileLevels(t *testing.T) {
	bc := compileSrc(t, loopSrc)
	if op, err := Compile(bc, LevelOff); err != nil || op != nil {
		t.Fatalf("level 0 = %v, %v; want nil, nil", op, err)
	}
	lowered, err := Compile(bc, LevelLower)
	if err != nil {
		t.Fatal(err)
	}
	if lowered.Level != LevelLower {
		t.Errorf("Level = %d", lowered.Level)
	}
	// Lowering is 1:1: every original instruction appears once, in
	// order, and no fused opcodes exist yet.
	if len(lowered.Code) != len(bc.Code) || lowered.OrigLen != len(bc.Code) {
		t.Fatalf("lowered %d instrs from %d", len(lowered.Code), len(bc.Code))
	}
	for i, ins := range lowered.Code {
		if ins.Op.Fused() {
			t.Fatalf("fused opcode %v at level 1", ins.Op)
		}
		if int(ins.OrigPC) != i || ins.Len != 1 {
			t.Fatalf("instr %d: OrigPC %d Len %d", i, ins.OrigPC, ins.Len)
		}
	}
	if lowered.Stats.FusedInstrs != 0 {
		t.Errorf("level-1 fused count %d", lowered.Stats.FusedInstrs)
	}

	fused, err := Compile(bc, LevelFuse)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Level != LevelFuse {
		t.Errorf("Level = %d", fused.Level)
	}
	if fused.Stats.FusedInstrs == 0 {
		t.Fatalf("fusion found nothing in a loop program:\n%s", fused.Disassemble())
	}
	if fused.Stats.OrigInstrs != len(bc.Code) || fused.Stats.OptInstrs != len(fused.Code) {
		t.Errorf("stats counts: %+v", fused.Stats)
	}
	// The absorbed-original accounting must balance: unfused + absorbed
	// = original instruction count.
	unfused := fused.Stats.OptInstrs - fused.Stats.FusedInstrs
	if unfused+fused.Stats.FusedOrig != fused.Stats.OrigInstrs {
		t.Errorf("instruction accounting: %+v", fused.Stats)
	}
	// The loop program exercises the compare-and-branch and
	// load/store patterns.
	for _, pat := range []string{"LOAD.CMP.JZ", "IMM.STORE"} {
		if fused.Stats.Patterns[pat] == 0 {
			t.Errorf("pattern %s not used:\n%s", pat, fused.Disassemble())
		}
	}
}

// TestFuseIdempotent checks the pass-ordering contract: Fuse runs to a
// fixpoint, so applying it again (or Compile at the same level twice)
// changes nothing.
func TestFuseIdempotent(t *testing.T) {
	srcs := []string{loopSrc}
	for seed := int64(1); seed <= 20; seed++ {
		_, _, src, err := progen.GenerateTyped(progen.Config{
			Lat: lattice.TwoPoint(), Seed: seed, AllowMitigate: true, AllowSleep: true,
		}, 50)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for i, src := range srcs {
		bc := compileSrc(t, src)
		once, err := Compile(bc, LevelFuse)
		if err != nil {
			t.Fatal(err)
		}
		again := &bytecode.OptProgram{Code: append([]bytecode.OptInstr(nil), once.Code...)}
		Fuse(again)
		if !reflect.DeepEqual(once.Code, again.Code) {
			t.Fatalf("program %d: Fuse is not idempotent", i)
		}
	}
}

// TestLowerRegisterBudget checks that NumRegs equals the evaluation
// stack's high-water mark, not the instruction count.
func TestLowerRegisterBudget(t *testing.T) {
	bc := compileSrc(t, `
var a : L;
var b : L;
a := ((1 + 2) * (3 + 4)) + ((5 + 6) * (7 + b));
`)
	op, err := Lower(bc)
	if err != nil {
		t.Fatal(err)
	}
	if op.NumRegs < 3 || op.NumRegs > 6 {
		t.Errorf("NumRegs = %d for depth-3 expression tree", op.NumRegs)
	}
}

// TestFuseJumpTargetGuard builds a program where a fusable pair's
// second instruction is a jump target: fusing it would let the jump
// land mid-group, so the pair must stay unfused — and the jump target
// must still be remapped correctly past earlier fusions.
func TestFuseJumpTargetGuard(t *testing.T) {
	p := &bytecode.Program{
		Code: []bytecode.Instr{
			{Op: bytecode.OpLoad, A: 0},  // 0: cond
			{Op: bytecode.OpJz, A: 4},    // 1: else-arm
			{Op: bytecode.OpPush, A: 7},  // 2
			{Op: bytecode.OpJmp, A: 5},   // 3: join
			{Op: bytecode.OpPush, A: 9},  // 4
			{Op: bytecode.OpStore, A: 1}, // 5: join point, depth 1
			{Op: bytecode.OpHalt},        // 6
		},
		ScalarNames: []string{"c", "out"},
		Lat:         lattice.TwoPoint(),
	}
	op, err := Compile(p, LevelFuse)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range op.Code {
		if ins.Op == bytecode.OImmStore {
			t.Fatalf("fused across a jump target:\n%s", op.Disassemble())
		}
	}
	// LOAD;JZ at the top fuses, shifting every index down by one; the
	// JMP and JZ targets must follow.
	if op.Code[0].Op != bytecode.OLoadJz {
		t.Fatalf("expected LOAD.JZ head:\n%s", op.Disassemble())
	}
	if got := op.Code[0].A; got != 3 {
		t.Errorf("JZ target remap: got %d want 3\n%s", got, op.Disassemble())
	}
	var jmp *bytecode.OptInstr
	for i := range op.Code {
		if op.Code[i].Op == bytecode.OJmp {
			jmp = &op.Code[i]
		}
	}
	if jmp == nil || jmp.A != 4 {
		t.Errorf("JMP target remap: %v\n%s", jmp, op.Disassemble())
	}
}

// TestLowerInconsistentDepth: a hand-built program whose join point is
// reached at two different stack depths is rejected as unsupported.
func TestLowerInconsistentDepth(t *testing.T) {
	p := &bytecode.Program{
		Code: []bytecode.Instr{
			{Op: bytecode.OpLoad, A: 0}, // 0
			{Op: bytecode.OpJz, A: 3},   // 1: target depth 0...
			{Op: bytecode.OpPush, A: 1}, // 2: ...fallthrough depth 1
			{Op: bytecode.OpHalt},       // 3
		},
		ScalarNames: []string{"c"},
		Lat:         lattice.TwoPoint(),
	}
	if _, err := Lower(p); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// TestLowerUnreachable: instructions no path reaches lower to NOP
// placeholders, preserving the 1:1 index map.
func TestLowerUnreachable(t *testing.T) {
	p := &bytecode.Program{
		Code: []bytecode.Instr{
			{Op: bytecode.OpJmp, A: 2},   // 0
			{Op: bytecode.OpStore, A: 0}, // 1: unreachable (would underflow)
			{Op: bytecode.OpHalt},        // 2
		},
		ScalarNames: []string{"x"},
		Lat:         lattice.TwoPoint(),
	}
	op, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if op.Code[1].Op != bytecode.ONop {
		t.Errorf("unreachable instr lowered to %v", op.Code[1].Op)
	}
}

// TestLowerPredecode checks operator kinds, labels, and event names are
// resolved at compile time.
func TestLowerPredecode(t *testing.T) {
	bc := compileSrc(t, `
var h : H;
array a[4] : L;
var i : L;
a[i] := i + 1;
sleep(h) [H,H];
`)
	op, err := Lower(bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(op.IdxNames) != 1 || len(op.IdxNames[0]) != 4 || op.IdxNames[0][2] != "a[2]" {
		t.Errorf("IdxNames = %v", op.IdxNames)
	}
	for _, n := range []int{0, 1, 10, 1280} {
		names := elementNames("wtab", n)
		if len(names) != n {
			t.Fatalf("elementNames(wtab, %d) has %d names", n, len(names))
		}
		for j, got := range names {
			if want := fmt.Sprintf("%s[%d]", "wtab", j); got != want {
				t.Errorf("elementNames(wtab, %d)[%d] = %q, want %q", n, j, got, want)
			}
		}
	}
	var sawBinop, sawHighLabel bool
	for _, ins := range op.Code {
		if ins.Op == bytecode.OBinop && ins.Kind == token.PLUS {
			sawBinop = true
		}
		if ins.Op == bytecode.OSetLbl && ins.ER.String() == "H" {
			sawHighLabel = true
		}
	}
	if !sawBinop || !sawHighLabel {
		t.Errorf("predecode missing: binop %v highLabel %v\n%s", sawBinop, sawHighLabel, op.Disassemble())
	}
}
