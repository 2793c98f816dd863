//go:build !race

package cpu

const race = false
