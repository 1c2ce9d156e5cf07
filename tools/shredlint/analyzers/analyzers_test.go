package analyzers

import (
	"testing"

	"shredder/tools/shredlint/analysistest"
)

func TestDurability(t *testing.T) {
	analysistest.Run(t, "testdata", Durability, "durability", "durability_clean", "durability_barrier", "durability_barrier_clean")
}

func TestStripeLock(t *testing.T) {
	analysistest.Run(t, "testdata", StripeLock, "stripelock", "stripelock_clean")
}

func TestObsNil(t *testing.T) {
	analysistest.Run(t, "testdata", ObsNil, "obsnil", "obsnil_clean")
}

func TestWireSym(t *testing.T) {
	analysistest.Run(t, "testdata", WireSym, "wiresym", "wiresym_clean")
}

func TestErrHygiene(t *testing.T) {
	analysistest.Run(t, "testdata", ErrHygiene, "errhygiene", "errhygiene_clean", "errhygiene_oos")
}
