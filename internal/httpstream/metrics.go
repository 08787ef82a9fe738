package httpstream

import (
	"time"

	"dynaminer/internal/obs"
)

// httpstream is a library with no owning serving instance, so its parse
// telemetry lives on the process-wide obs.Default registry. Parsing is
// batch-shaped — one call covers a whole TCP conversation — so every
// call observes the httpstream.parse stage once and opens no span. The
// clock is a function value (never a bare time.Now() call — the zerotime
// invariant) so the package can be pointed at a fake clock if a test
// ever needs to.
var (
	parseClock = time.Now

	parseStage        = obs.Default().Stage("httpstream.parse")
	parseTransactions = obs.Default().Counter("dynaminer_httpstream_transactions_total",
		"Transactions extracted from parsed streams.")
	parseBytes = obs.Default().Counter("dynaminer_httpstream_bytes_total",
		"TCP payload bytes fed through the HTTP parsers.")
)
