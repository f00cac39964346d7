package scenario

// Pinned by benchmark/sweep.go's `scenario.builddelta_us` / `eval.engine_*`
// probes; delete with them in the housekeeping `benchmark` PR.

// DeltaState is what remains of the delta case compiler's chain state.
type DeltaState struct{}

// BuildDeltaCase is Build.
func (ctx *Context) BuildDeltaCase(failed []int, _ *DeltaState) (*Instance, error) {
	return ctx.Build(failed)
}
