//go:build race

package explore

func init() { raceDetector = true }
