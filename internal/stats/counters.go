package stats

import "sync/atomic"

// SnapshotFallbacks counts snapshot loads that failed validation (bad
// magic, version, checksum, key, truncation) and degraded gracefully to
// fresh characterization. It is process-global because fallbacks are an
// operational health signal, not a per-run metric: benchall reports it as
// snapshot/fallbacks and tests assert it moves when corruption is
// injected. Use Load/Add directly.
var SnapshotFallbacks atomic.Int64
