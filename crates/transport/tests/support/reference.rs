//! Reference CRC32: the one-table bytewise loop, kept simple on purpose.
//! Every instance of `frame::crc32` (slice-by-8, carry-less multiply)
//! must agree with it on every input.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i: u32 = 0;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i as usize] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE 802.3 polynomial, reflected) of `data`, one byte a step.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = (c ^ u32::from(b)) & 0xFF;
        c = CRC_TABLE[idx as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}
