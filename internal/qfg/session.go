package qfg

// Session support implements the paper's stated future work (§VIII):
// exploiting user sessions in the SQL query log. Queries issued within one
// session serve a single information need, so fragments from *different*
// queries of a session carry co-occurrence evidence too — weaker than
// within-query co-occurrence, and decaying with the distance between the
// queries in the session.
//
// Session evidence is stored separately from the integer nv/ne counts of
// Definition 6 (the snapshot's sess array) and folded into Dice as a
// fractional addend:
//
//	Dice_s(c1, c2) = (2·(ne(c1,c2) + sess(c1,c2))) / (nv(c1) + nv(c2))
//
// where sess accumulates decay^(j-i) for fragments of the i-th and j-th
// query of a session (Live.AddSession; delta.addSession does the fold).
// Each query of the session also counts toward nv/ne as usual; decay must
// lie in (0, 1] and the session's multiplicity scales both. With no
// sessions added, Dice_s ≡ Dice.
