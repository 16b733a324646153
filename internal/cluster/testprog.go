package cluster

// TestProgramSrc is the paper's §6.2 measurement program: it "increments
// and prints three counters (a register, a static variable allocated on
// the data segment and a variable allocated on the stack). On each
// iteration it inputs a line and appends it to an output file."
//
// Register counter: r7. Static counter: cnt. Stack counter: the word at
// the top of the stack. Each iteration prints "R<d> D<d> S<d>\n" (digits
// modulo 10) to stdout, reads a line from stdin and appends it to the
// file "out" in the current directory. EOF on stdin ends the program.
const TestProgramSrc = `
; the paper's three-counter test program
start:  movi r0, outfile
        movi r1, 0644
        sys  creat          ; r0 = fd of the output file
        mov  r4, r0         ; keep it in a register across migration
        movi r5, 0
        push r5             ; the stack counter lives on the stack
        movi r7, 0          ; the register counter

loop:   addi r7, 1          ; register counter++
        ld   r5, cnt
        addi r5, 1
        st   r5, cnt        ; static counter++
        pop  r6
        addi r6, 1
        push r6             ; stack counter++

        ; render "R# D# S#\n"
        mov  r5, r7
        movi r6, 10
        mod  r5, r6
        addi r5, '0'
        movi r6, line+1
        stb  r6, r5
        ld   r5, cnt
        movi r6, 10
        mod  r5, r6
        addi r5, '0'
        movi r6, line+4
        stb  r6, r5
        pop  r6
        push r6
        mov  r5, r6
        movi r6, 10
        mod  r5, r6
        addi r5, '0'
        movi r6, line+7
        stb  r6, r5
        movi r0, 1
        movi r1, line
        movi r2, 9
        sys  write

        ; input a line, append it to the output file
        movi r0, 0
        movi r1, buf
        movi r2, 64
        sys  read
        mov  r3, r0
        cmpi r3, 0
        jeq  done           ; EOF
        mov  r0, r4
        movi r1, buf
        mov  r2, r3
        sys  write
        jmp  loop

done:   movi r0, 0
        sys  exit

        .data
outfile: .asciz "out"
cnt:    .word 0
line:   .ascii "R0 D0 S0\n"
buf:    .space 64
`

// DatagramServerSrc is the socket-migration server (§9 extension, E3):
// bind a datagram socket to port 4000 and count the datagrams received
// until one starting with 'q' arrives, then exit with the count. A
// receive error exits 99 — what a migrated server whose socket became
// /dev/null sees.
const DatagramServerSrc = `
start:  sys  socket
        mov  r4, r0
        mov  r0, r4
        movi r1, 4000
        sys  bind
        cmpi r1, 0
        jne  bad
loop:   mov  r0, r4
        movi r1, buf
        movi r2, 16
        sys  recvfrom
        cmpi r1, 0
        jne  bad
        movi r6, buf
        ldb  r5, r6
        cmpi r5, 'q'
        jeq  done
        ld   r5, count
        addi r5, 1
        st   r5, count
        jmp  loop
done:   ld   r0, count
        sys  exit
bad:    movi r0, 99
        sys  exit
        .data
count:  .word 0
buf:    .space 16
`

// HogSrc is a pure CPU burner: it spins for roughly the number of
// "work units" given as the low byte of the first argv byte... kept
// simple: it loops forever; callers kill or migrate it. It reports
// liveness by incrementing a static counter.
const HogSrc = `
start:  movi r1, 0
loop:   addi r1, 1
        cmpi r1, 5000
        jlt  loop
        ld   r2, ticks
        addi r2, 1
        st   r2, ticks
        movi r1, 0
        jmp  loop
        .data
ticks:  .word 0
`

// FiniteHogSrc burns a fixed amount of CPU (~10M instructions ≈ 10 s on a
// Sun-2) and exits 0. Used by the load-balancing experiments.
const FiniteHogSrc = `
start:  movi r3, 0
outer:  movi r1, 0
inner:  addi r1, 1
        cmpi r1, 10000
        jlt  inner
        addi r3, 1
        cmpi r3, 333
        jlt  outer
        movi r0, 0
        sys  exit
`

// TmpfileSrc is the §7 "badly behaved" program: it derives a temporary
// file name from its pid every time it needs the file (asking the system
// for the pid each time rather than caching it, exactly the failure mode
// the paper describes). After a migration changes the pid, it can no
// longer find its own file — unless the pid-spoofing extension is
// enabled. Protocol: it creates t<pid mod 10000, 4 digits> in its current
// directory, writes "A", waits for a line on stdin, then re-derives the
// name and appends "B". Exit 0 on success, 3 if the reopen fails.
const TmpfileSrc = `
start:  call mkname
        movi r0, name
        movi r1, 0644
        sys  creat
        cmpi r0, 0
        jlt  fail
        mov  r4, r0
        mov  r0, r4
        movi r1, chA
        movi r2, 1
        sys  write
        mov  r0, r4
        sys  close

        ; wait for a poke on stdin (this is where we get migrated)
        movi r0, 0
        movi r1, buf
        movi r2, 16
        sys  read

        ; re-derive the name from getpid() and try to append
        call mkname
        movi r0, name
        movi r1, 1      ; O_WRONLY
        sys  open
        cmpi r0, 0
        jlt  fail
        mov  r4, r0
        mov  r0, r4
        movi r1, chB
        movi r2, 1
        sys  write
        movi r0, 0
        sys  exit
fail:   movi r0, 3
        sys  exit

; mkname: render getpid()%10000 into the 4 digit positions of name
mkname: sys  getpid
        mov  r5, r0
        movi r6, 10000
        mod  r5, r6
        ; digits from the right: name+4 down to name+1
        movi r7, name+4
dloop:  mov  r1, r5
        movi r6, 10
        mod  r1, r6
        addi r1, '0'
        stb  r7, r1
        mov  r1, r5
        movi r6, 10
        div  r1, r6
        mov  r5, r1
        subi r7, 1
        movi r6, name
        cmp  r7, r6
        jgt  dloop
        ret

        .data
name:   .asciz "t0000"
chA:    .ascii "A"
chB:    .ascii "B"
buf:    .space 16
`

// WaiterSrc forks a child that sleeps, then waits for it — the §7 caveat
// program: if migrated while waiting, wait() returns ECHILD on the new
// machine. Exit status: 0 if wait succeeded, 10 if wait failed.
const WaiterSrc = `
start:  sys  fork
        cmpi r0, 0
        jeq  child
        movi r1, 0
        sys  wait           ; blocks; r1 errno slot checked after
        cmpi r1, 0
        jne  badwait
        movi r0, 0
        sys  exit
badwait: movi r0, 10
        sys  exit
child:  movi r0, 30
        sys  sleep
        movi r0, 0
        sys  exit
`
