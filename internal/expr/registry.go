package expr

import (
	"strings"
	"sync"

	"talign/internal/value"
)

// RegisteredFunc describes a scalar function installed at runtime with
// RegisterFunc. Registered functions sit behind the built-ins: a name
// that collides with a built-in never shadows it. Like the built-ins,
// a registered function is only invoked on non-null arguments — any
// null argument makes the call return null before dispatch (the
// dialect's strict three-valued convention).
type RegisteredFunc struct {
	// MinArity and MaxArity bound the accepted argument count;
	// MaxArity < 0 means variadic.
	MinArity, MaxArity int
	// Result is the static result kind used by the type checker.
	Result value.Kind
	// Eval computes the call. It runs once per row inside executor
	// operators, so it must be safe for concurrent use by concurrent
	// queries. A panic here is recovered at the operator boundary and
	// surfaces as a structured internal error.
	Eval func(args []value.Value) (value.Value, error)
}

var (
	funcRegMu sync.RWMutex
	funcReg   map[string]RegisteredFunc
)

// RegisterFunc installs (or replaces) a scalar function under name
// (case-insensitive) for every statement planned afterwards. It is the
// extension seam the resilience tests use to plant failing functions;
// production registrations should happen before serving queries.
func RegisterFunc(name string, fn RegisteredFunc) {
	funcRegMu.Lock()
	defer funcRegMu.Unlock()
	if funcReg == nil {
		funcReg = make(map[string]RegisteredFunc)
	}
	funcReg[strings.ToUpper(name)] = fn
}

// UnregisterFunc removes a registered function (no-op when absent).
func UnregisterFunc(name string) {
	funcRegMu.Lock()
	defer funcRegMu.Unlock()
	delete(funcReg, strings.ToUpper(name))
}

// lookupFunc resolves a registered function by its upper-cased name.
func lookupFunc(name string) (RegisteredFunc, bool) {
	funcRegMu.RLock()
	defer funcRegMu.RUnlock()
	fn, ok := funcReg[name]
	return fn, ok
}

// registeredInfo is funcInfo's registry fallback.
func registeredInfo(name string, arity int) (value.Kind, bool) {
	fn, ok := lookupFunc(name)
	if !ok || arity < fn.MinArity || (fn.MaxArity >= 0 && arity > fn.MaxArity) {
		return value.KindNull, false
	}
	return fn.Result, true
}
