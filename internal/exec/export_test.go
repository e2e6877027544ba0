package exec

// IterStatesAllocated reports how many iteration states ex has allocated so
// far, over all steps; states recycled within or across steps are not
// counted again.
func (ex *Executable) IterStatesAllocated() int64 { return ex.iterStates.Load() }

// TakePooledStep removes one idle step state from ex's pool (nil if it holds
// none) so a test can keep it, and whatever it references, alive.
func (ex *Executable) TakePooledStep() any { return ex.stepPool.Get() }

// WorkerIdleTimeout is how long an idle pool worker lingers.
const WorkerIdleTimeout = workerIdleTimeout

// PoolWorkers reports how many pool workers ex has running, and its cap.
func (ex *Executable) PoolWorkers() (live, limit int32) { return ex.workers.Load(), ex.maxWorkers }
