//! Fixture: a crate root that only denies, with the keyword in three
//! guises below it. The comment saying unsafe and the "unsafe" string do
//! not count, nor does `unsafe_code`.

#![deny(unsafe_code)]

/// Reads through a raw pointer.
#[allow(unsafe_code)]
pub fn peek(p: *const u8) -> u8 {
    let _label = "unsafe";
    unsafe { *p }
}

struct Handle(*mut u8);

#[allow(unsafe_code)]
unsafe impl Send for Handle {}

#[cfg(test)]
mod tests {
    #[test]
    #[allow(unsafe_code)]
    fn test_modules_count_too() {
        let x = 7u8;
        assert_eq!(unsafe { *(&x as *const u8) }, 7);
    }
}
