package scope

import (
	"fmt"
	"io"
	"os"
)

// WriteArtifacts writes the hub's trace (Chrome trace-event JSON) and
// metrics (CSV) to the given paths; an empty path skips that artifact.
// cedarsim's -trace and -metrics flags and the facade's
// WriteScopeArtifacts funnel here, so both emit identical formats.
func WriteArtifacts(h *Hub, tracePath, metricsPath string) error {
	if tracePath != "" {
		if err := writeFile(tracePath, h.WriteChromeTrace); err != nil {
			return fmt.Errorf("scope: trace: %w", err)
		}
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, h.WriteMetricsCSV); err != nil {
			return fmt.Errorf("scope: metrics: %w", err)
		}
	}
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
