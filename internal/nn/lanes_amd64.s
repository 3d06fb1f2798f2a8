#include "textflag.h"

// func lanes16(dst, init, a *float64, n int, m *float64, stride int)
//
// dst[0:16] = init[0:16] + Σ_{j<n} a[j]·m[j·stride : j·stride+16], each
// lane in its own ymm accumulator with the products added in j order.
// Every step is a VMULPD rounded on its own and then a VADDPD, never a
// fused multiply-add, so each lane matches Go's scalar acc += a*b.
TEXT ·lanes16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ init+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ n+24(FP), CX
	MOVQ m+32(FP), BX
	MOVQ stride+40(FP), DX
	SHLQ $3, DX
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	TESTQ CX, CX
	JEQ   done

loop:
	VBROADCASTSD (AX), Y4
	VMULPD       0(BX), Y4, Y5
	VMULPD       32(BX), Y4, Y6
	VMULPD       64(BX), Y4, Y7
	VMULPD       96(BX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, AX
	ADDQ         DX, BX
	DECQ         CX
	JNE          loop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
