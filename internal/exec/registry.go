package exec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/lang/ast"
	"repro/internal/machine/hw"
	"repro/internal/types"
)

// Factory constructs an engine for one type-checked program over one
// machine environment. Construction may do per-program work (the VM
// engine compiles, or fetches from the program cache) and validates the
// program, so a broken program fails at engine construction rather than
// per request.
type Factory func(prog *ast.Program, res *types.Result, env hw.Env, opts Options) (Engine, error)

// The registry maps engine names to factories, mirroring hw's
// environment registry. Built-ins "tree" and "vm" are registered
// below; tests and future backends can add their own.
var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

func init() {
	MustRegister("tree", newTreeEngine)
	MustRegister("vm", newVMEngine)
}

// Register adds a named engine factory. It reports an error when the
// name is already taken.
func Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("exec: Register needs a non-empty name and factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("exec: engine %q already registered", name)
	}
	registry[name] = f
	return nil
}

// MustRegister is Register, panicking on error; for init-time use.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// DefaultEngine is the engine that serves when a caller names none:
// the bytecode VM at DefaultOptLevel. It is observationally identical
// to "tree", which stays registered as the reference oracle that the
// differential suite, certify and the benchmark replay name
// explicitly.
const DefaultEngine = "vm"

// NewEngine constructs a registered engine by name. The empty name
// selects DefaultEngine.
func NewEngine(name string, prog *ast.Program, res *types.Result, env hw.Env, opts Options) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("exec: unknown engine %q (want one of %v)", name, EngineNames())
	}
	if err := opts.Limits.Validate(); err != nil {
		return nil, err
	}
	return f(prog, res, env, opts)
}

// EngineNames lists the registered engine names, sorted.
func EngineNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
