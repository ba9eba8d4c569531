// Package optimize implements the bytecode optimization pipeline: a
// stack-to-register lowering pass with full operand predecoding,
// followed by a peephole superinstruction-fusion pass. The output
// (bytecode.OptProgram) executes on the VM's register-lowered hot loop
// with bit-identical observable behaviour to the stack interpreter —
// the same simulated clock, event trace, mitigation schedule, final
// memory, and machine-environment state — because every pass preserves
// the exact sequence of machine-environment accesses and clock commits
// at observable points (see DESIGN.md §12).
//
// Pass ordering is fixed: Lower must run first (fusion patterns are
// defined over the register form), and Fuse is idempotent (it runs to
// an internal fixpoint, so fusing an already-fused program changes
// nothing). Compile applies the passes for a requested level.
package optimize

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/bytecode"
	"repro/internal/lang/token"
	"repro/internal/lattice"
)

// ErrUnsupported marks programs the pipeline declines to optimize
// (e.g. evaluation-stack depth beyond the register file's addressing).
// Callers fall back to the unoptimized program; any other error is a
// real inconsistency worth surfacing.
var ErrUnsupported = errors.New("optimize: program shape unsupported")

// maxRegs is the register-file addressing limit (register indices are
// uint8). Structured programs need stack depth ~ expression nesting
// depth, so the limit is effectively never hit outside adversarial
// inputs — which fall back to the stack interpreter.
const maxRegs = 256

// Levels of the pipeline.
const (
	// LevelOff disables the pipeline.
	LevelOff = 0
	// LevelLower applies register lowering and operand predecoding.
	LevelLower = 1
	// LevelFuse additionally applies superinstruction fusion.
	LevelFuse = 2
)

// Compile runs the pipeline at the given level. Level <= 0 returns
// (nil, nil): no optimized program. Errors wrapping ErrUnsupported mean
// "this program can't be optimized, run it unoptimized"; other errors
// indicate a malformed program.
func Compile(p *bytecode.Program, level int) (*bytecode.OptProgram, error) {
	if level <= LevelOff {
		return nil, nil
	}
	op, err := Lower(p)
	if err != nil {
		return nil, err
	}
	if level >= LevelFuse {
		Fuse(op)
		op.Level = LevelFuse
	}
	finalizeStats(op)
	return op, nil
}

// Lower translates a stack program 1:1 into the register form: stack
// slot i becomes register i (the compiler's structured output gives
// every instruction a statically known entry depth, verified here by
// abstract interpretation), labels and operator kinds are predecoded,
// and array-element event names are precomputed. The result has
// Level = LevelLower.
func Lower(p *bytecode.Program) (*bytecode.OptProgram, error) {
	n := len(p.Code)
	depth, maxDepth, err := stackDepths(p)
	if err != nil {
		return nil, err
	}
	if maxDepth > maxRegs {
		return nil, fmt.Errorf("%w: stack depth %d exceeds %d registers", ErrUnsupported, maxDepth, maxRegs)
	}

	labels := make([]lattice.Label, p.Lat.Size())
	for _, l := range p.Lat.Levels() {
		labels[l.ID()] = l
	}
	label := func(id int64) (lattice.Label, error) {
		if id < 0 || id >= int64(len(labels)) {
			return lattice.Label{}, fmt.Errorf("optimize: bad label id %d", id)
		}
		return labels[id], nil
	}

	out := &bytecode.OptProgram{
		Code:    make([]bytecode.OptInstr, 0, n),
		NumRegs: maxDepth,
		OrigLen: n,
		Level:   LevelLower,
	}
	for pc, ins := range p.Code {
		d := depth[pc]
		oi := bytecode.OptInstr{Len: 1, OrigPC: int32(pc)}
		if d < 0 {
			// Unreachable instruction (can only arise in hand-built
			// programs): it can never execute, so a NOP placeholder
			// keeps the 1:1 index mapping without inventing register
			// operands for it.
			oi.Op = bytecode.ONop
			out.Code = append(out.Code, oi)
			continue
		}
		need := func(k int) error {
			if d < k {
				return fmt.Errorf("optimize: pc %d: %v needs stack depth %d, have %d", pc, ins.Op, k, d)
			}
			return nil
		}
		switch ins.Op {
		case bytecode.OpNop:
			oi.Op = bytecode.ONop
		case bytecode.OpHalt:
			oi.Op = bytecode.OHalt
		case bytecode.OpSetLbl:
			oi.Op = bytecode.OSetLbl
			if oi.ER, err = label(ins.A); err != nil {
				return nil, err
			}
			if oi.EW, err = label(ins.B); err != nil {
				return nil, err
			}
			oi.Node = ins.C
		case bytecode.OpPush:
			oi.Op, oi.Dst, oi.Val = bytecode.OImm, uint8(d), ins.A
		case bytecode.OpLoad:
			oi.Op, oi.Dst, oi.A = bytecode.OLoad, uint8(d), int32(ins.A)
		case bytecode.OpLoadIdx:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.Dst, oi.S1, oi.A = bytecode.OLoadIdx, uint8(d-1), uint8(d-1), int32(ins.A)
		case bytecode.OpStore:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1, oi.A = bytecode.OStore, uint8(d-1), int32(ins.A)
		case bytecode.OpStoreIdx:
			if err := need(2); err != nil {
				return nil, err
			}
			oi.Op, oi.S2, oi.S1, oi.A = bytecode.OStoreIdx, uint8(d-1), uint8(d-2), int32(ins.A)
		case bytecode.OpUnop:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.Dst, oi.S1, oi.Kind = bytecode.OUnop, uint8(d-1), uint8(d-1), token.Kind(ins.A)
		case bytecode.OpBinop:
			if err := need(2); err != nil {
				return nil, err
			}
			oi.Op, oi.Dst, oi.S1, oi.S2, oi.Kind = bytecode.OBinop, uint8(d-2), uint8(d-2), uint8(d-1), token.Kind(ins.A)
		case bytecode.OpJmp:
			oi.Op, oi.A = bytecode.OJmp, int32(ins.A)
		case bytecode.OpJz:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1, oi.A = bytecode.OJz, uint8(d-1), int32(ins.A)
		case bytecode.OpSleep:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1 = bytecode.OSleep, uint8(d-1)
		case bytecode.OpMitEnter:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1, oi.A = bytecode.OMitEnter, uint8(d-1), int32(ins.A)
			if oi.ER, err = label(ins.B); err != nil {
				return nil, err
			}
		case bytecode.OpMitExit:
			oi.Op, oi.A = bytecode.OMitExit, int32(ins.A)
		default:
			return nil, fmt.Errorf("%w: unknown opcode %v at pc %d", ErrUnsupported, ins.Op, pc)
		}
		out.Code = append(out.Code, oi)
	}

	// Precompute per-element event names so STOREIDX commits events
	// without a per-event format allocation; contents are exactly the
	// stack interpreter's fmt.Sprintf("%s[%d]", name, idx).
	out.IdxNames = make([][]string, len(p.ArrayNames))
	for i, name := range p.ArrayNames {
		out.IdxNames[i] = elementNames(name, int(p.ArraySizes[i]))
	}
	return out, nil
}

// elementNames returns "name[0]" … "name[n-1]" as substrings of one
// string, so a large array costs a fixed handful of allocations at
// compile time (and so at server start-up) rather than a formatted
// string per element.
func elementNames(name string, n int) []string {
	names := make([]string, n)
	ends := make([]int, n)
	buf := make([]byte, 0, n*(len(name)+8))
	for j := range names {
		buf = append(buf, name...)
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(j), 10)
		buf = append(buf, ']')
		ends[j] = len(buf)
	}
	all, start := string(buf), 0
	for j, end := range ends {
		names[j] = all[start:end]
		start = end
	}
	return names
}

// stackDepths computes each instruction's entry stack depth by abstract
// interpretation over the control-flow graph, verifying that every
// instruction is reached at a single consistent depth (true for all
// compiler output: expressions are evaluated without crossing control
// flow). The second result is the maximum depth reached (the register
// file size). Unreachable instructions report depth -1.
func stackDepths(p *bytecode.Program) ([]int, int, error) {
	n := len(p.Code)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	if n == 0 {
		return depth, 0, nil
	}
	maxDepth := 0
	type item struct{ pc, d int }
	work := []item{{0, 0}}
	visit := func(pc, d int) error {
		if pc < 0 || pc >= n {
			return fmt.Errorf("optimize: jump target %d out of range", pc)
		}
		if d < 0 {
			return fmt.Errorf("optimize: stack underflow reaching pc %d", pc)
		}
		if depth[pc] >= 0 {
			if depth[pc] != d {
				return fmt.Errorf("%w: pc %d reached at depths %d and %d", ErrUnsupported, pc, depth[pc], d)
			}
			return nil
		}
		depth[pc] = d
		work = append(work, item{pc, d})
		return nil
	}
	depth[0] = 0
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, d := it.pc, it.d
		ins := p.Code[pc]
		next := d
		switch ins.Op {
		case bytecode.OpPush, bytecode.OpLoad:
			next = d + 1
		case bytecode.OpStore, bytecode.OpBinop, bytecode.OpSleep, bytecode.OpMitEnter:
			next = d - 1
		case bytecode.OpStoreIdx:
			next = d - 2
		case bytecode.OpHalt:
			continue
		case bytecode.OpJmp:
			if err := visit(int(ins.A), d); err != nil {
				return nil, 0, err
			}
			continue
		case bytecode.OpJz:
			next = d - 1
			if err := visit(int(ins.A), next); err != nil {
				return nil, 0, err
			}
		}
		if next < 0 {
			return nil, 0, fmt.Errorf("optimize: stack underflow at pc %d (%v)", pc, ins.Op)
		}
		if next > maxDepth {
			maxDepth = next
		}
		if pc+1 < n {
			if err := visit(pc+1, next); err != nil {
				return nil, 0, err
			}
		}
	}
	return depth, maxDepth, nil
}

// finalizeStats recomputes the pipeline statistics from the final code.
func finalizeStats(op *bytecode.OptProgram) {
	st := bytecode.OptStats{
		OrigInstrs: op.OrigLen,
		OptInstrs:  len(op.Code),
		Patterns:   map[string]int{},
	}
	for _, ins := range op.Code {
		if ins.Op.Fused() {
			st.FusedInstrs++
			st.FusedOrig += int(ins.Len)
			st.Patterns[ins.Op.String()]++
		}
	}
	op.Stats = st
}
