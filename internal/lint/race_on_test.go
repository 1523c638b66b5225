//go:build race

package lint_test

// raceEnabled reports whether the race detector is compiled in:
// TestModuleIsLintClean skips under it.
const raceEnabled = true
