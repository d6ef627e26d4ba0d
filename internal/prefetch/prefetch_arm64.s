#include "textflag.h"

// func Line(p unsafe.Pointer)
TEXT ·Line(SB), NOSPLIT|NOFRAME, $0-8
	MOVD	p+0(FP), R0
	PRFM	(R0), PLDL1KEEP
	RET
