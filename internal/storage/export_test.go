package storage

// Hooks for the external tests in this directory (package storage_test),
// which drive a store through the engine.
var GenTrajs = genTrajs
