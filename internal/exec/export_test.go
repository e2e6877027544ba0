package exec

// IterStatesAllocated reports how many iteration states the frame-aware path
// of ex has allocated so far, over all steps; states recycled within or
// across steps are not counted again.
func (ex *Executable) IterStatesAllocated() int64 { return ex.iterStates.Load() }
