package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// defaultSeed reproduces kelpbench's defaults: node seed 1, fleet seed 2.
const defaultSeed = 1

// SHA-256 of the default-seed output, equal to that of
// `kelpbench -exp all` and `kelpbench -exp fleet -machines 20000`.
const (
	sweepDigest = "81d641a5fb92af612c9c16f9bcb567e108f155626aa1f6ba0a034228aeda9087"
	fleetDigest = "6c742743d1cf7d06ab3eb693210f4bd079f3624db0c8af5b20cea6929447c332"
)

// matchDigest compares text's SHA-256 with a committed digest.
func matchDigest(what, text, want string) error {
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s tables digest %s, want %s", what, got, want)
	}
	return nil
}
