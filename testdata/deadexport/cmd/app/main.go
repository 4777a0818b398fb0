package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var t lib.T
	fmt.Println(lib.Used(), t.Dead)
}
