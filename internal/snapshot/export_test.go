package snapshot

// Helpers shared with the external test package (snapshot_test), which
// exists because it drives internal/mmapstore — an importer of this
// package — beside Decode.
const HeaderSize = headerSize

var (
	OfflinePhase  = offlinePhase
	FuzzImageSeed = fuzzImageSeed
	Reseal        = reseal
)
