package traj

// NewScannerSize exposes the initial buffer size to the external tests.
var NewScannerSize = newScanner
