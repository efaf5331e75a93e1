//! The execution context: the resources a kernel call runs with.

use snap_budget::Budget;
use snap_graph::WorkspacePool;
use std::sync::Arc;

/// What a kernel is handed besides its input: the compute [`Budget`] it
/// must honour and the [`WorkspacePool`] its traversals draw scratch
/// from. Every kernel has a plain entry point that runs under
/// `Exec::default()` — unlimited budget, fresh pool — and at most one
/// `*_in` / `try_*` form taking `&Exec`; callers that issue many calls
/// (a `Network` session, pBD rounds) hold one `Exec` so the pool's slot
/// arrays warm up once. Clones share both the budget state and the pool.
///
/// Thread count and observability are deliberately *not* here: threads
/// are the ambient rayon pool (`snap::with_threads`), collection is the
/// ambient `snap-obs` scope.
#[derive(Clone, Debug, Default)]
pub struct Exec {
    /// Checked cooperatively at coarse kernel boundaries; unlimited by
    /// default.
    pub budget: Budget,
    /// Traversal scratch shared by every call made with this context (a
    /// cache, not state: results never depend on its history).
    pub pool: Arc<WorkspacePool>,
}
