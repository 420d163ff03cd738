package trace

// ResetSharedForTest lets the package's external tests start from a cold
// store.
var ResetSharedForTest = resetShared
